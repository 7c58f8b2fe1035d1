"""Command-line interface.

Exit codes: 0 success, 1 usage/config error, 2 device verification failed,
3 self-verification discrepancy.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .circuits import circuit_stats
from .device import DeviceModel
from .errors import QbenchError
from .noise import NoiseModel
from .protocols import default_verification_width, xeb_verify_device
from .qasm import emit_qasm, parse_qasm
from .report import Report, RunConfig, render_report, run_benchmark_suite, self_verify_report
from .rng import SeedStream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION_FAILED = 2
EXIT_SELF_VERIFY = 3


@click.group()
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Master seed override.")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Output path.")
@click.option("--repetitions", type=click.IntRange(min=1), default=None, help="Suite repetition override.")
@click.pass_context
def cli(ctx, seed, out, repetitions):
    """Benchmark harness for simulated quantum processors."""
    ctx.ensure_object(dict)
    ctx.obj.update(seed=seed, out=out, repetitions=repetitions)


def _write_or_echo(ctx, payload: bytes) -> None:
    out = ctx.obj.get("out")
    if out:
        Path(out).write_bytes(payload)
        click.echo(f"wrote {out}")
    else:
        click.echo(payload.decode().rstrip("\n"))


@cli.command()
@click.option("--device", "device_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--noise-1q", type=float, default=0.0, help="Uniform 1q depolarizing override.")
@click.option("--noise-2q", type=float, default=0.0, help="Uniform 2q depolarizing override.")
@click.option("--readout", type=float, default=0.0, help="Uniform readout flip override.")
@click.option("--use-device-noise", is_flag=True, help="Use the device's own error book.")
@click.option("--width", "n_qubits", type=int, default=None, help="Verification width.")
@click.option("--circuits", type=int, default=10)
@click.option("--shots", type=int, default=5000)
@click.option("--threshold", type=float, default=0.9)
@click.pass_context
def verify(ctx, device_path, noise_1q, noise_2q, readout, use_device_noise,
           n_qubits, circuits, shots, threshold):
    """Run the XEB device-verification stage on its own."""
    device = DeviceModel.load(device_path)
    if use_device_noise:
        noise = NoiseModel.from_device(device)
    elif noise_1q or noise_2q or readout:
        noise = NoiseModel.uniform(noise_1q, noise_2q, readout)
    else:
        noise = None
    if n_qubits is None:
        n_qubits = default_verification_width(device)
    seed = ctx.obj.get("seed") or 0
    result = xeb_verify_device(device, noise, n_qubits, circuits, shots,
                               SeedStream(seed, (0,)), threshold=threshold)
    click.echo(json.dumps(result.to_record()["aggregate"], sort_keys=True))
    if not result.verified:
        sys.exit(EXIT_VERIFICATION_FAILED)


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--peak/--no-peak", default=None,
              help="Force peak results on/off regardless of the config file.")
@click.pass_context
def run(ctx, config_path, peak):
    """Run the configured benchmark suite and write the report."""
    config = RunConfig.load(config_path)
    if ctx.obj.get("seed") is not None:
        config.master_seed = ctx.obj["seed"]
    if ctx.obj.get("repetitions") is not None:
        config.repetitions = ctx.obj["repetitions"]
    if peak is False:
        config.peak = None
    if peak is True and config.peak is None:
        raise click.UsageError("--peak requested but the config defines no peak pipeline")
    report = run_benchmark_suite(config)
    out = ctx.obj.get("out") or config.out or "report.json"
    report.save(out)
    click.echo(f"wrote {out}")
    if not report.doc["verification"]["passed"]:
        click.echo("device verification FAILED; protocol stages were skipped", err=True)
        sys.exit(EXIT_VERIFICATION_FAILED)


@cli.command("report")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="text")
@click.pass_context
def report_cmd(ctx, in_path, fmt):
    """Render a stored report as canonical JSON or SPEC-style text."""
    report = Report.load(in_path)
    _write_or_echo(ctx, render_report(report, fmt))


@cli.command()
@click.option("--report", "report_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--reexecute", type=click.IntRange(min=0), default=0,
              help="Also regenerate this many circuits from seeds and compare counts.")
def check(report_path, reexecute):
    """Self-verify a report: recompute every aggregate from its raw records."""
    outcome = self_verify_report(Report.load(report_path), reexecute=reexecute)
    click.echo(json.dumps(outcome.to_json(), sort_keys=True, indent=2))
    if not outcome.ok:
        sys.exit(EXIT_SELF_VERIFY)


@cli.command()
@click.option("--qasm", "qasm_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def parse(ctx, qasm_path):
    """Parse an OpenQASM 2.0 subset file and echo its canonical form."""
    circuit = parse_qasm(Path(qasm_path).read_text())
    _write_or_echo(ctx, emit_qasm(circuit).encode())


@cli.command()
@click.option("--qasm", "qasm_path", required=True, type=click.Path(exists=True, dir_okay=False))
def stats(qasm_path):
    """Width/depth/density statistics of an OpenQASM file."""
    st = circuit_stats(parse_qasm(Path(qasm_path).read_text()))
    click.echo(json.dumps({
        "width": st.width, "depth": st.depth, "gate_density": st.gate_density,
        "measurement_density": st.measurement_density,
        "two_qubit_count": st.two_qubit_count,
    }, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False, prog_name="qbench")
        return EXIT_OK
    except SystemExit as exc:  # raised by commands for codes 2 and 3
        return int(exc.code or 0)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except (QbenchError, OSError, json.JSONDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_USAGE
    except click.exceptions.Abort:
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
