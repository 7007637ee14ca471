"""Command-line entry point: ``python -m repro.bench`` runs the
figure reproductions (same flags as ``python -m repro.bench.figures``)."""

from repro.bench.figures import main
from repro.exp.runner import run_cli

if __name__ == "__main__":
    run_cli(main, "repro.bench",
            "rerun the same command to resume from the result cache")
