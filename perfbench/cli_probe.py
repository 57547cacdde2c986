"""``python -m starbundle.cli`` with spans, for the traced ``dq_cli`` run.

    python3 perfbench/cli_probe.py DQ-ARGUMENTS...

Behaves like the dq command -- same output, same exit code -- and, as
the last line of standard error, prints after the marker
``SPANS_MARKER`` the spans it recorded around the import and around the
calls dq makes into the parser, render, emit and checks modules, with
the module samples taken while dq ran.
"""

import json
import sys

SPANS_MARKER = "\x00perfbench-spans "


def main(argv) -> int:
    from traces import ModuleSampler, Tracer

    tracer = Tracer()
    sampler = ModuleSampler()
    sampler.start()
    with tracer.span("cli.import"):
        import starbundle.cli as cli
        from starbundle import checks

    cli._lower = tracer.wrap("parser.lower_expression", cli._lower)
    cli.format_function = tracer.wrap("render.format_function", cli.format_function)
    cli.format_operator = tracer.wrap("render.format_operator", cli.format_operator)
    cli.emit_json = tracer.wrap("emit.emit_json", cli.emit_json)
    cli.to_json = tracer.wrap("emit.to_json", cli.to_json)
    for suite, fn in list(checks.SUITES.items()):
        checks.SUITES[suite] = tracer.wrap(f"checks.{suite}", fn)
    try:
        code = tracer.wrap("cli.main", cli.main)(argv)
    finally:
        sampler.stop()
        sys.stdout.flush()
        report = {"spans": tracer.spans, "counts": sampler.counts, "total": sampler.total}
        sys.stderr.write(SPANS_MARKER + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
