"""Acceptance gate: one test per criterion, each printing a pass line.

The two training fixtures dominate the runtime: the pinned overfit run
(5 utterances, 4 blocks, 128 channels, 2000 steps, ~3.5 min on 2 cores)
and the enhancement model for the directional checks (32 utterances, 256
channels, 500 steps, ~1.5 min). Every test body then completes within
seconds. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from ccrn import cli, corpus as cp, diffcore as dc, frontend as fe, netmodel as nm, objectives as obj
from ccrn import quality as q
from ccrn.frontend import LogSpectrogram, Waveform


def report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {detail}")


# ---------------------------------------------------------------------------
# shared evaluation material

EVAL_RT60 = (0.25, 0.5, 0.7)
LADDER_RT60 = (0.0, 0.25, 0.5, 0.7)


@pytest.fixture(scope="module")
def eval_utterances():
    return [cp.synth_speech(2.5, seed=500 + i) for i in range(20)]


def corrupted(clean: Waveform, i: int, rt60: float) -> Waveform:
    base = 5.0 if i % 2 else -5.0
    spec = cp.CorruptionSpec(
        cp.make_rir_spec(rt60, cp.room_drr(rt60, base), 900 + i), snr_db=20.0, seed=1300 + i
    )
    return cp.corrupt(clean, spec)


@pytest.fixture(scope="module")
def noisy_scores(eval_utterances):
    """Mean unprocessed LLR/SRMR per ladder condition."""
    scores = {}
    for rt60 in LADDER_RT60:
        llrs, srmrs = [], []
        for i, clean in enumerate(eval_utterances):
            noisy = corrupted(clean, i, rt60)
            llrs.append(q.llr(clean, noisy))
            srmrs.append(q.srmr(noisy))
        scores[rt60] = (float(np.mean(llrs)), float(np.mean(srmrs)))
    return scores


@pytest.fixture(scope="module")
def overfit_run():
    """Criterion 5's pinned configuration, trained once."""
    corpus = [cp.synth_speech(3.0, seed=i) for i in range(5)]
    config = nm.ModelConfig(kind="ccrn", blocks=4, channels=128, input_dim=876)
    cfg = obj.TrainConfig(steps=2000, lr=1e-3, alpha=0.1, seed=11, checkpoint_interval=0)
    model = nm.build_model(config, seed=3)
    start = time.time()
    reports = obj.train(model, corpus, cfg)
    return model, reports, time.time() - start


@pytest.fixture(scope="module")
def enhancement_model():
    """Desk-scale enhancement model for the directional criterion."""
    corpus = [cp.synth_speech(3.0, seed=i) for i in range(32)]
    config = nm.ModelConfig(kind="ccrn", blocks=4, channels=256, input_dim=876)
    cfg = obj.TrainConfig(steps=500, lr=1e-3, alpha=0.1, seed=11, checkpoint_interval=0)
    model = nm.build_model(config, seed=3)
    obj.train(model, corpus, cfg)
    nm.set_training(model, False)
    return model


# ---------------------------------------------------------------------------
# C1: gradient fidelity


def test_c1_gradient_fidelity():
    start = time.time()
    worst = 0.0
    rng = np.random.default_rng(44)

    # individual layers
    x = dc.parameter(rng.standard_normal((3, 16)))
    target = rng.standard_normal((3, 16))
    w = dc.parameter(rng.standard_normal((3, 3, 3)) * 0.4)
    b = dc.parameter(rng.standard_normal(3) * 0.1)
    worst = max(worst, dc.grad_check(lambda: dc.mse(dc.conv1d(x, w, b), target), [x, w, b]))

    state = dc.batchnorm_state(3, dtype=np.float64)
    worst = max(worst, dc.grad_check(lambda: dc.mse(dc.batchnorm1d(x, state), target),
                                     [x, state.gamma, state.beta]))

    slope = dc.parameter(np.full(3, 0.25))
    assert float(np.min(np.abs(x.value))) > 1e-3  # clear of the kink
    worst = max(worst, dc.grad_check(lambda: dc.mse(dc.prelu(x, slope), target), [x, slope]))

    # plain and progressive costs through full 2-block models of both kinds
    for kind in ("ccrn", "ccrn-state"):
        data_rng = np.random.default_rng(44)
        config = nm.ModelConfig(kind=kind, blocks=2, channels=8, state_step=4, input_dim=12)
        model = nm.build_model(config, seed=1, dtype=np.float64)
        xv = data_rng.standard_normal((12, 12))
        yv = data_rng.standard_normal((8, 12))

        def plain_loss():
            final, _ = nm.forward_nodes(model, dc.Node(xv), want_probes=False)
            return dc.mse(final, yv)

        def progressive_loss():
            _, probes = nm.forward_nodes(model, dc.Node(xv), want_probes=True)
            total, _ = obj.cost_graph(probes, yv, alpha=0.1)
            return total

        margin = dc.kink_margin(progressive_loss())
        assert margin > 1e-4, f"{kind}: kink margin {margin} too small for finite differences"
        params = [node for _, node in nm.named_parameters(model)]
        worst = max(worst, dc.grad_check(plain_loss, params))
        worst = max(worst, dc.grad_check(progressive_loss, params))

    elapsed = time.time() - start
    assert worst < 1e-4
    assert elapsed < 60.0
    report("C1", f"max relative gradient error {worst:.2e} across layers, costs, "
                 f"and both 2-block architectures ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# C2: structural constants


def test_c2_structural_constants():
    w = cp.synth_speech(1.0, seed=7)
    feats, _ = fe.assemble_features(w)
    assert feats.frames.shape[1] == 876

    assert fe.frame_signal(w, 25.0).shape[0] == 98
    assert fe.target_spectrum(w).frames.shape == (98, 512)

    model = nm.build_model(nm.ModelConfig(kind="ccrn-state"), seed=0)
    for l, block in enumerate(model.blocks, start=1):
        assert block.stage1.conv.weight.value.shape[0] == 32 * l
        if l < 14:
            assert block.out_state.weight.value.shape[0] == 32 * l
    assert model.blocks[-1].out_state is None
    report("C2", "feature width 876, spectrum width 512, 98 frames per second, "
                 "state widths 32*l for l=1..14, no state output from block 14")


# ---------------------------------------------------------------------------
# C3: residual/probe identities


def test_c3_probe_identities():
    rng = np.random.default_rng(55)
    for kind in ("ccrn", "ccrn-state"):
        config = nm.ModelConfig(kind=kind, blocks=4, channels=16, state_step=4, input_dim=20)
        model = nm.build_model(config, seed=2, dtype=np.float64)
        nm.set_training(model, False)
        x = rng.standard_normal((20, 15))

        out, probes = nm.forward_nodes(model, dc.Node(x), want_probes=True)
        assert np.array_equal(probes[-1].value, out.value)

        truncated, _ = nm.forward_nodes(nm.truncate(model, 4), dc.Node(x))
        assert np.array_equal(truncated.value, out.value)

        block = model.blocks[2]
        for conv in (block.stage1.conv, block.stage2.conv, block.out_res, block.out_state):
            if conv is not None:
                conv.weight.value[...] = 0.0
                conv.bias.value[...] = 0.0
        _, zeroed = nm.forward_nodes(model, dc.Node(x), want_probes=True)
        assert np.array_equal(zeroed[2].value, zeroed[1].value)
    report("C3", "probes[L] == output, truncate(L) == full output, and zeroed "
                 "blocks are bit-exact identities for both architectures")


# ---------------------------------------------------------------------------
# C4: progressive cost reduces to the plain cost at alpha = 0


def test_c4_alpha_zero_bit_identical():
    start = time.time()
    corpus = [cp.synth_speech(1.5, seed=80 + i) for i in range(3)]
    config = nm.ModelConfig(blocks=2, channels=128, input_dim=876)
    cfg = obj.TrainConfig(steps=50, seq_len=100, batch_size=2, lr=1e-3, alpha=0.0,
                          seed=21, checkpoint_interval=0)

    trained = nm.build_model(config, seed=5)
    obj.train(trained, corpus, cfg)

    manual = nm.build_model(config, seed=5)
    params = nm.named_parameters(manual)
    state = obj.OptimizerState()
    nm.set_training(manual, True)
    for step in range(cfg.steps):
        x_np, y_np = obj._batch(corpus, cfg, step, np.float32, config.channels)
        final, _ = nm.forward_nodes(manual, dc.Node(x_np), want_probes=True)
        loss = dc.mse(final, y_np)
        dc.zero_grads(node for _, node in params)
        dc.backprop(loss)
        obj.adamw_step(params, state, cfg)

    for (name, a), (_, b) in zip(nm.named_parameters(trained), params):
        assert np.array_equal(a.value, b.value), name
    elapsed = time.time() - start
    assert elapsed < 300.0
    report("C4", f"alpha=0 trajectory bit-identical to the plain-cost trajectory "
                 f"over 50 steps ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# C5: overfit convergence with per-block refinement


def test_c5_overfit_convergence(overfit_run):
    _, reports, elapsed = overfit_run
    initial = reports[0].main
    final = reports[-1].main
    assert final < 0.1 * initial, f"final {final} vs initial {initial}"
    per_block = reports[-1].per_block
    assert per_block[3] < per_block[0], per_block
    assert elapsed < 1800.0
    report("C5", f"overfit cost {initial:.2f} -> {final:.3f} "
                 f"({100 * final / initial:.1f}%), final per-block costs "
                 f"{[round(c, 3) for c in per_block]} ({elapsed / 60:.1f} min)")


# ---------------------------------------------------------------------------
# C6: directional enhancement on held-out material


def test_c6_directional_enhancement(enhancement_model, eval_utterances, noisy_scores):
    start = time.time()
    lines = []
    for rt60 in EVAL_RT60:
        llrs, srmrs = [], []
        for i, clean in enumerate(eval_utterances):
            noisy = corrupted(clean, i, rt60)
            enhanced, _, _ = cli.enhance_waveform(enhancement_model, noisy)
            peak = np.max(np.abs(enhanced.samples))
            if peak > 1.0:
                enhanced = Waveform(enhanced.samples / peak)
            llrs.append(q.llr(clean, enhanced))
            srmrs.append(q.srmr(enhanced))
        enh_llr, enh_srmr = float(np.mean(llrs)), float(np.mean(srmrs))
        raw_llr, raw_srmr = noisy_scores[rt60]
        assert enh_llr < raw_llr, f"rt60 {rt60}: LLR {enh_llr} !< {raw_llr}"
        assert enh_srmr > raw_srmr, f"rt60 {rt60}: SRMR {enh_srmr} !> {raw_srmr}"
        lines.append(f"rt60 {rt60}: llr {raw_llr:.3f}->{enh_llr:.3f} srmr {raw_srmr:.2f}->{enh_srmr:.2f}")
    elapsed = time.time() - start
    assert elapsed < 600.0
    report("C6", "enhancement improves both metrics in every condition | " + " | ".join(lines))


# ---------------------------------------------------------------------------
# C7: metric monotonicity over the reverberation ladder


def test_c7_metric_monotonicity(noisy_scores):
    llrs = [noisy_scores[r][0] for r in LADDER_RT60]
    srmrs = [noisy_scores[r][1] for r in LADDER_RT60]
    assert all(a > b for a, b in zip(srmrs, srmrs[1:])), srmrs
    assert all(a < b for a, b in zip(llrs, llrs[1:])), llrs
    report("C7", f"mean SRMR {[round(v, 2) for v in srmrs]} strictly decreasing; "
                 f"mean LLR {[round(v, 3) for v in llrs]} strictly increasing")


# ---------------------------------------------------------------------------
# C8: analysis/synthesis round trip


def test_c8_reconstruction_fidelity():
    snrs = []
    for seed in (30, 31, 32):
        clean = cp.synth_speech(1.5, seed=seed)
        spec = fe.target_spectrum(clean)
        _, phase = fe.assemble_features(clean)
        n = phase.frames.shape[0]
        rec = fe.reconstruct(LogSpectrogram(spec.frames[:n]), phase, clean.samples.size)
        coverage = (n - 1) * 160 + 400
        interior = slice(200, coverage - 200)
        err = clean.samples[interior] - rec.samples[interior]
        snr = float(10 * np.log10(np.sum(clean.samples[interior] ** 2) / max(np.sum(err**2), 1e-300)))
        snrs.append(snr)
        assert snr >= 30.0
    report("C8", f"round-trip interior SNR {[round(s, 1) for s in snrs]} dB (>= 30 dB)")


# ---------------------------------------------------------------------------
# C9: determinism of training and corpus synthesis


def test_c9_determinism(tmp_path):
    start = time.time()
    corpus = [cp.synth_speech(1.5, seed=90 + i) for i in range(3)]
    config = nm.ModelConfig(blocks=2, channels=128, input_dim=876)
    cfg = obj.TrainConfig(steps=10, seq_len=100, batch_size=2, lr=1e-3, seed=33,
                          checkpoint_interval=0)
    blobs = []
    for run in range(2):
        model = nm.build_model(config, seed=6)
        path = tmp_path / f"run{run}.bin"
        obj.train(model, corpus, cfg, checkpoint_path=path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]

    config_text = "corpus.utterances = 3\ncorpus.duration = 1.2\ncorpus.seed = 44\ncorpus.rt60 = 0.25\n"
    cfg_path = tmp_path / "synth.cfg"
    cfg_path.write_text(config_text)
    for name in ("a", "b"):
        assert cli.main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / name)]) == 0
    wavs = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.wav"))
    assert wavs
    for rel in wavs:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    elapsed = time.time() - start
    assert elapsed < 120.0
    report("C9", f"byte-identical checkpoints after 10 steps and byte-identical "
                 f"synthesized corpora ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# C10: oracle equivalence on randomized instances


def conv1d_loops(x, w, b, padding):
    c_out, c_in, k = w.shape
    c, t = x.shape
    xp = np.zeros((c, t + 2 * padding))
    xp[:, padding:padding + t] = x
    t_out = t + 2 * padding - k + 1
    out = np.zeros((c_out, t_out))
    for o in range(c_out):
        for tt in range(t_out):
            acc = 0.0
            for i in range(c_in):
                for j in range(k):
                    acc += xp[i, tt + j] * w[o, i, j]
            out[o, tt] = acc + b[o]
    return out


def cost_loops(y, x):
    t, n = y.shape
    acc = 0.0
    for nn in range(n):
        inner = 0.0
        for tt in range(t):
            inner += (y[tt, nn] - x[tt, nn]) ** 2
        acc += inner / t
    return acc / n


def dct_direct(row):
    n = row.size
    out = np.zeros(n)
    for k in range(n):
        acc = 0.0
        for i in range(n):
            acc += row[i] * np.cos(np.pi * k * (2 * i + 1) / (2 * n))
        out[k] = (np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)) * acc
    return out


def adam_reference(theta, grads, lr, b1, b2, eps):
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta = theta - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    return theta


def test_c10_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(66)

    for _ in range(100):
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 5]))
        t = int(rng.integers(k, 13))
        x = rng.standard_normal((c_in, t))
        w = rng.standard_normal((c_out, c_in, k))
        b = rng.standard_normal(c_out)
        got = dc.conv1d(dc.constant(x), dc.parameter(w), dc.parameter(b)).value
        assert np.max(np.abs(got - conv1d_loops(x, w, b, (k - 1) // 2))) < 1e-6

    for _ in range(100):
        y = rng.standard_normal((int(rng.integers(2, 6)), int(rng.integers(2, 8))))
        x = rng.standard_normal(y.shape)
        assert abs(obj.mse_cost(y, x) - cost_loops(y, x)) < 1e-9

    for _ in range(100):
        row = rng.standard_normal(int(rng.choice([8, 16, 32])))
        got = fe.cepstral_features(row[None, :])[0]
        assert np.max(np.abs(got - dct_direct(row))) < 1e-8

    cfg = obj.TrainConfig(lr=1e-3, weight_decay=0.0)
    for _ in range(100):
        theta = rng.standard_normal(4)
        grads = [rng.standard_normal(4) for _ in range(10)]
        p = dc.parameter(theta.copy())
        state = obj.OptimizerState()
        for g in grads:
            p.grad = g.copy()
            obj.adamw_step([("p", p)], state, cfg)
        ref = adam_reference(theta, grads, cfg.lr, cfg.beta1, cfg.beta2, cfg.epsilon)
        assert np.max(np.abs(p.value - ref)) < 1e-9

    elapsed = time.time() - start
    assert elapsed < 120.0
    report("C10", f"conv1d, cost, cepstra, and AdamW(wd=0) match their oracles on "
                  f"100 randomized instances each ({elapsed:.0f}s)")
