"""CLI smoke tests (hardware artefacts, and argument checks that stop a
training artefact before it trains; training paths are covered by the
benchmarks)."""

import pytest

from repro.cli import ALL_ARTEFACTS, build_parser, main


class TestParser:
    def test_accepts_known_artefacts(self):
        parser = build_parser()
        args = parser.parse_args(["tab1", "tab3"])
        assert args.artefacts == ["tab1", "tab3"]

    def test_rejects_unknown(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["tab99"])

    def test_all_artefacts_have_runners(self):
        from repro.cli import _RUNNERS

        assert set(ALL_ARTEFACTS) == set(_RUNNERS)

    def test_defaults(self):
        args = build_parser().parse_args(["tab1"])
        assert args.timesteps == 8
        assert args.width == 0.125
        assert args.engine == "dense"
        assert args.profile is False

    def test_batched_engine_and_workers(self):
        """Batch shards are gone: the engine's lanes use every core, and
        no figure or serve run takes --workers any more."""
        from repro.cli import build_serve_parser

        args = build_parser().parse_args(["fig7", "--engine", "batched"])
        assert args.engine == "batched"
        assert not hasattr(args, "workers")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7", "--workers", "2"])
        with pytest.raises(SystemExit):
            build_serve_parser().parse_args(["--workers", "2"])

    def test_auto_engine_profile_and_shard_mode(self):
        from repro.cli import build_serve_parser

        args = build_parser().parse_args(["fig9", "--engine", "auto", "--profile"])
        assert args.engine == "auto"
        assert args.profile is True
        assert not hasattr(args, "shard_mode")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9", "--shard-mode", "thread"])
        with pytest.raises(SystemExit):
            build_serve_parser().parse_args(["--shard-mode", "thread"])

    def test_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7", "--engine", "warp"])

    def test_rejects_unknown_shard_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7", "--shard-mode", "quantum"])

    def test_unknown_engine_error_lists_valid_choices(self, capsys):
        """A bad --engine dies at the parser with every valid backend
        spelled out — not as a traceback from the engine factory."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["fig7", "--engine", "warp"])
        assert excinfo.value.code == 2  # argparse usage error, no traceback
        err = capsys.readouterr().err
        assert "invalid choice" in err
        for name in ("dense", "event", "batched", "auto"):
            assert name in err

    def test_engine_choices_track_registry(self):
        """The CLI accepts exactly the engine registry, aliases included,
        so a new backend never needs a second hand-maintained list."""
        from repro.cli import ENGINE_CHOICES
        from repro.snn.engines import ENGINES

        assert set(ENGINE_CHOICES) == set(ENGINES)
        args = build_parser().parse_args(["fig7", "--engine", "adaptive"])
        assert args.engine == "adaptive"

    def test_input_format_flag(self):
        args = build_parser().parse_args(["fig8", "--input-format", "events"])
        assert args.input_format == "events"
        assert build_parser().parse_args(["fig8"]).input_format == "frames"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig8", "--input-format", "holograms"])


class TestCampaignParser:
    def test_kind_and_out_required(self):
        from repro.cli import build_campaign_parser

        parser = build_campaign_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["faults"])  # missing --out
        with pytest.raises(SystemExit):
            parser.parse_args(["bogus", "--out", "x"])
        args = parser.parse_args(["faults", "--out", "runs/f"])
        assert args.kind == "faults"
        assert args.out == "runs/f"

    def test_defaults(self):
        from repro.cli import build_campaign_parser

        args = build_campaign_parser().parse_args(["dse", "--out", "x"])
        assert args.workers == 1
        assert args.max_points is None
        assert args.retries == 1
        assert args.trials == 2
        assert 1e-3 in args.rates

    def test_list_flags_parse(self):
        from repro.cli import build_campaign_parser

        args = build_campaign_parser().parse_args(
            ["dse", "--out", "x", "--pe", "4,8", "--clock", "50,100",
             "--rates", "0.001,0.01", "--max-points", "2"]
        )
        assert args.pe == [4, 8]
        assert args.clock == [50.0, 100.0]
        assert args.rates == [0.001, 0.01]
        assert args.max_points == 2

    def test_rejects_empty_list(self):
        from repro.cli import build_campaign_parser

        with pytest.raises(SystemExit):
            build_campaign_parser().parse_args(["dse", "--out", "x", "--pe", ","])

    def test_mode_flag_is_gone(self, capsys):
        """``--workers`` alone picks the substrate: there is no --mode."""
        from repro.cli import build_campaign_parser

        with pytest.raises(SystemExit) as excinfo:
            build_campaign_parser().parse_args(["dse", "--out", "x", "--mode", "fork"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --mode" in capsys.readouterr().err


class TestCampaignCommand:
    def test_dse_campaign_kill_and_resume(self, tmp_path, capsys):
        from repro.cli import EXIT_CAMPAIGN_INCOMPLETE

        out = str(tmp_path / "dse")
        argv = ["campaign", "dse", "--out", out,
                "--pe", "4,8", "--bn-lanes", "8", "--clock", "50,100"]
        # Simulated kill: stop after 2 of 4 points.
        assert main(argv + ["--max-points", "2"]) == EXIT_CAMPAIGN_INCOMPLETE
        assert "INCOMPLETE" in capsys.readouterr().out
        # Resume completes the remaining points and exits 0.
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "4/4 points complete" in text
        assert "8x8PE/8BN@100MHz" in text

    @pytest.mark.parametrize(
        "flag, value",
        [("--workers", "0"), ("--retries", "-1"), ("--point-timeout", "0"),
         ("--backoff", "-1")],
        ids=["workers-0", "retries-neg", "point-timeout-0", "backoff-neg"],
    )
    def test_bad_knob_is_a_usage_error(self, tmp_path, capsys, flag, value):
        """A bad execution knob stops the campaign at the parser, before
        the fault sweep trains its VGG-11."""
        out = tmp_path / "faults"
        argv = ["campaign", "faults", "--out", str(out), "--epochs", "1",
                "--train", "16", "--test", "8", "--timesteps", "2", flag, value]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}" in captured.err
        assert "Traceback" not in captured.err
        assert "training" not in captured.out
        assert not out.exists()

    def test_campaign_dispatch_does_not_shadow_artefacts(self, capsys):
        # Regular artefact parsing still works after the dispatch hook.
        assert main(["tab3"]) == 0
        assert "Table III" in capsys.readouterr().out


class TestHardwareArtefacts:
    def test_tab1(self, capsys):
        assert main(["tab1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "FC (512)" in out

    def test_tab2(self, capsys):
        assert main(["tab2"]) == 0
        out = capsys.readouterr().out
        assert "11x11" in out

    def test_tab3(self, capsys):
        assert main(["tab3"]) == 0
        out = capsys.readouterr().out
        assert "BRAM" in out
        assert "95" in out

    def test_tab4(self, capsys):
        assert main(["tab4"]) == 0
        out = capsys.readouterr().out
        assert "This Work" in out
        assert "DSP-efficiency" in out

    def test_asic(self, capsys):
        assert main(["asic"]) == 0
        out = capsys.readouterr().out
        assert "192" in out

    def test_dse(self, capsys):
        assert main(["dse"]) == 0
        out = capsys.readouterr().out
        assert "8x8PE/16BN@100MHz" in out
        assert "Pareto" in out or "pareto" in out

    def test_multiple_and_dedup(self, capsys):
        assert main(["tab3", "tab3", "asic"]) == 0
        out = capsys.readouterr().out
        assert out.count("Table III") == 1

    def test_all_skip_training(self, capsys):
        assert main(["all", "--skip-training"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out
        assert "Fig. 7" not in out


class TestTrainingArtefacts:
    def test_curve_shorter_than_the_evaluated_t_is_a_usage_error(self, capsys):
        argv = ["fig9", "--max-timesteps", "4", "--epochs", "1",
                "--train", "40", "--test", "20"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "max_timesteps=4" in err and "timesteps=8" in err
        assert "Traceback" not in err


#: Tiny training runs: every figure trains in about a second.
TINY = ["--epochs", "1", "--train", "16", "--test", "8", "--max-timesteps", "8"]


def _evaluated_t(figure, out):
    """The T a figure's output says it evaluated at."""
    if figure in ("fig7", "fig9"):
        line = next(l for l in out.splitlines() if l.startswith("SNN accuracy"))
        return int(line.split("T=")[1].split(")")[0])
    line = next(l for l in out.splitlines() if l.startswith("spike rates over"))
    return int(line.split("T=")[1].split(",")[0])


@pytest.mark.parametrize("figure", ["fig6", "fig7", "fig8", "fig9"])
@pytest.mark.parametrize(
    "flags, expected",
    [([], 8), (["--timesteps", "4"], 4), (["--timesteps", "9"], None)],
    ids=["default", "timesteps-4", "beyond-max"],
)
def test_timesteps_flag_matrix(figure, flags, expected, capsys):
    """Every training figure evaluates at ``--timesteps`` (default 8)
    and refuses a T beyond ``--max-timesteps`` as a usage error."""
    if expected is None:
        with pytest.raises(SystemExit) as excinfo:
            main([figure, *TINY, *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "max_timesteps=8" in err and "timesteps=9" in err
        assert "Traceback" not in err
        return
    assert main([figure, *TINY, *flags]) == 0
    out = capsys.readouterr().out
    assert _evaluated_t(figure, out) == expected
    if figure in ("fig7", "fig9"):
        curve = next(l for l in out.splitlines() if l.startswith("accuracy vs T"))
        assert len(curve.split(":")[1].split()) == 8
