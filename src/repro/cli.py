"""Command-line interface: compile, run, diff and dynamically update jmini
programs from the shell.

Examples::

    python -m repro run server.jm --until-ms 2000
    python -m repro disasm server.jm --class-name Handler
    python -m repro diff old.jm new.jm
    python -m repro update old.jm new.jm --at 500 --until-ms 3000
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .compiler.compile import compile_source
from .bytecode.disassembler import disassemble_class
from .dsu.engine import UpdateEngine, UpdateRequest
from .dsu.upt import diff_programs, prepare_update
from .vm.vm import VM


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _boot(source: str, filename: str, version: str, heap_cells: int) -> VM:
    vm = VM(heap_cells=heap_cells)
    vm.boot(compile_source(source, filename, version=version))
    return vm


def cmd_run(args) -> int:
    source = _read(args.file)
    vm = _boot(source, args.file, "cli", args.heap_cells)
    vm.start_main(args.main)
    vm.run(until_ms=args.until_ms, max_instructions=args.max_instructions)
    for line in vm.console:
        print(line)
    for trap in vm.trap_log:
        print(f"[trap] {trap}", file=sys.stderr)
    return 1 if vm.trap_log else 0


def cmd_disasm(args) -> int:
    classfiles = compile_source(_read(args.file), args.file)
    names = [args.class_name] if args.class_name else sorted(classfiles)
    for name in names:
        if name not in classfiles:
            print(f"no class {name!r} in {args.file}", file=sys.stderr)
            return 1
        print(disassemble_class(classfiles[name]))
        print()
    return 0


def cmd_diff(args) -> int:
    old = compile_source(_read(args.old), args.old, version=args.old_version)
    new = compile_source(_read(args.new), args.new, version=args.new_version)
    spec = diff_programs(old, new, args.old_version, args.new_version)
    totals = spec.totals()
    print(f"update {args.old_version} -> {args.new_version}")
    print(f"  classes: +{totals['classes_added']} -{totals['classes_deleted']} "
          f"~{totals['classes_changed']}")
    print(f"  methods: +{totals['methods_added']} -{totals['methods_deleted']} "
          f"body-changed {totals['methods_body_changed']} "
          f"signature-changed {totals['methods_signature_changed']}")
    print(f"  fields:  +{totals['fields_added']} -{totals['fields_deleted']} "
          f"retyped {totals['fields_type_changed']}")
    print(f"  class updates (layout/signature): {sorted(spec.class_updates) or '-'}")
    print(f"  method body updates:   {sorted(spec.method_body_updates) or '-'}")
    print(f"  indirect (category 2): {sorted(spec.indirect_methods) or '-'}")
    print(f"  supportable by method-body-only systems: "
          f"{'yes' if spec.method_body_only() else 'no'}")
    if args.spec_out:
        with open(args.spec_out, "w") as handle:
            handle.write(spec.to_json() + "\n")
        print(f"  specification written to {args.spec_out}")
    return 0


def _parse_transformer_overrides(text: str) -> dict:
    """Parse a file of per-class replacement method text, separated by
    lines of the form '=== ClassName'."""
    overrides: dict = {}
    current: Optional[str] = None
    chunks: List[str] = []
    for line in text.splitlines():
        if line.startswith("=== "):
            if current is not None:
                overrides[current] = "\n".join(chunks)
            current = line[4:].strip()
            chunks = []
        else:
            chunks.append(line)
    if current is not None:
        overrides[current] = "\n".join(chunks)
    return overrides


def cmd_update(args) -> int:
    old_source = _read(args.old)
    new_source = _read(args.new)
    old = compile_source(old_source, args.old, version=args.old_version)
    new = compile_source(new_source, args.new, version=args.new_version)
    vm = VM(heap_cells=args.heap_cells)
    vm.boot(old)
    vm.start_main(args.main)
    engine = UpdateEngine(vm)
    overrides = None
    if args.transformers:
        overrides = _parse_transformer_overrides(_read(args.transformers))
    prepared = prepare_update(
        old, new, args.old_version, args.new_version,
        transformer_overrides=overrides,
    )
    from .dsu.policy import UpdatePolicy
    from .dsu.safepoint import RetryPolicy

    try:
        # Validate the policy flags now, not when the scheduled request fires.
        policy = UpdatePolicy(
            retry=RetryPolicy(
                args.timeout_ms, args.dsu_retries, args.dsu_backoff
            ),
            lint=args.dsu_lint,
            bypass=args.bypass,
            inloop_osr="off" if args.paper_fidelity else args.inloop_osr,
            transform=args.dsu_transform,
            heap_grow=args.dsu_heap_grow,
        )
    except ValueError as bad:
        print(f"error: {bad}", file=sys.stderr)
        return 2
    # Warn with the analysis the engine will act on: no "will OSR" when
    # the rescue is off.
    from .analysis import SEVERITY_INFO, analyze_update

    report = analyze_update(old, prepared,
                            inloop_osr=policy.inloop_osr == "auto")
    for diagnostic in report.diagnostics:
        if diagnostic.severity != SEVERITY_INFO:
            print(f"[warn] {diagnostic.message}", file=sys.stderr)
    request = UpdateRequest(prepared, policy=policy)
    vm.events.schedule(args.at, lambda: engine.submit(request))
    vm.run(until_ms=args.until_ms, max_instructions=args.max_instructions)
    if args.trace_out:
        from .obs.export import write_chrome_trace

        write_chrome_trace(vm.tracer, args.trace_out, metrics=vm.metrics)
        print(f"[trace] wrote {args.trace_out}", file=sys.stderr)
    for line in vm.console:
        print(line)
    result = engine.history[-1] if engine.history else None
    if result is None:
        print("[update] never requested (program ended first?)", file=sys.stderr)
        return 1
    detail = ""
    if result.succeeded:
        detail = (f" (pause {result.total_pause_ms:.2f} sim-ms, "
                  f"{result.objects_transformed} objects transformed)")
        if result.bypassed:
            detail += (f" [immediate bypass, "
                       f"{result.bypass_stale_frames} stale frame(s)]")
        if result.transform_mode == "lazy":
            detail += (f" [lazy epoch, <= {result.lazy_pending_upper} "
                       f"object(s) transformed on touch/idle]")
    else:
        detail = (f" [phase={result.failed_phase} code={result.reason_code}"
                  f" rolled_back={result.rolled_back}"
                  f" rounds={result.retry_rounds + 1}/{result.rounds_allowed}]")
    print(f"[update] {result.status}"
          + (f": {result.reason}" if result.reason else "")
          + detail,
          file=sys.stderr)
    return 0 if result.succeeded else 1


def cmd_trace(args) -> int:
    """Run one bundled update under light load and export its span tree."""
    from .apps.registry import APPS, update_pairs
    from .harness import pauses
    from .obs.export import render_span_tree

    if args.app not in APPS:
        print(f"error: unknown app {args.app!r} "
              f"(choose from {', '.join(APPS)})", file=sys.stderr)
        return 2
    from_version, separator, to_version = args.update.partition("-")
    if not separator or (from_version, to_version) not in update_pairs(args.app):
        pairs = ", ".join(f"{a}-{b}" for a, b in update_pairs(args.app))
        print(f"error: unknown update {args.update!r} for {args.app} "
              f"(choose from {pairs})", file=sys.stderr)
        return 2
    out = args.trace_out or f"{args.app}-{from_version}-{to_version}.trace.json"
    row, vm = pauses.measure_pause(
        args.app, from_version, to_version,
        request_at_ms=args.at, timeout_ms=args.timeout_ms,
        until_ms=args.until_ms, trace_out=out,
    )
    print(pauses.render_pause_table([row]))
    if args.spans:
        print()
        print(render_span_tree(vm.tracer, min_duration_ms=args.min_span_ms))
    print(f"[trace] wrote {out} (open in Perfetto or chrome://tracing)",
          file=sys.stderr)
    for problem in row.soundness_problems():
        print(f"[trace] UNSOUND: {problem}", file=sys.stderr)
    return 1 if row.soundness_problems() else 0


def cmd_report(args) -> int:
    """Regenerate every committed artifact; exit 1 on any problem."""
    from .harness.report import generate_report

    report, problems = generate_report(args.scale, args.out_dir)
    print(report)
    for problem in problems:
        print(f"FIGURE {problem}", file=sys.stderr)
    return 1 if problems else 0


def _lint_superset_gate(boot_info, prepared, report):
    """Runtime check of the analyzer's central soundness claim: boot the
    old version, adversarially opt-compile *everything* (so every
    possible inline host materializes), and verify the methods the VM
    would actually treat as restricted are a subset of the static
    prediction. Returns the over-restriction set (empty = gate passes)."""
    from .dsu.safepoint import observed_restriction_keys, resolve_restricted
    from .harness.updates import AppDriver

    app, from_version, _ = boot_info
    vm = AppDriver.for_app(app).boot(from_version).vm
    for entry in list(vm.methods.all_entries()):
        if entry.info.is_native:
            continue
        try:
            vm.jit.compile_opt(entry)
        except Exception:
            continue
    sets = resolve_restricted(vm, prepared.spec)
    observed = observed_restriction_keys(vm, sets)
    return observed - report.predicted_restricted


def cmd_dsu_lint(args) -> int:
    """Static update-safety analysis: predict whether/why an update can
    land, before any VM is signalled."""
    import json as json_module

    from .analysis import analyze_update
    from .dsu.upt import diff_programs as diff, prepare_update as prepare

    # (label, old classfiles, prepared, expect_errors-or-None,
    #  (app, from, to)-or-None) per linted update.
    targets = []
    if args.all_apps or args.app:
        from .apps.registry import (
            APPS,
            EXPECTED_OSR_RESCUED,
            STATIC_PREDICTED_ABORTS,
            expected_bypass_eligible,
            update_pairs,
        )
        from .harness.updates import AppDriver

        app_names = sorted(APPS) if args.all_apps else [args.app]
        for app in app_names:
            if app not in APPS:
                print(f"unknown app {app!r} (have: {', '.join(sorted(APPS))})",
                      file=sys.stderr)
                return 2
            driver = AppDriver.for_app(app)
            pairs = update_pairs(app)
            if args.from_version or args.to_version:
                if not (args.from_version and args.to_version):
                    print("--from-version and --to-version go together",
                          file=sys.stderr)
                    return 2
                pairs = [(args.from_version, args.to_version)]
            for from_version, to_version in pairs:
                prepared = driver.prepare_pair(from_version, to_version)
                targets.append((
                    f"{app} {from_version}->{to_version}",
                    driver.classfiles(from_version),
                    prepared,
                    (app, from_version, to_version) in STATIC_PREDICTED_ABORTS,
                    (app, from_version, to_version),
                ))
    else:
        if not (args.old and args.new):
            print("dsu-lint needs either OLD NEW files or --app/--all-apps",
                  file=sys.stderr)
            return 2
        old = compile_source(_read(args.old), args.old, version=args.old_version)
        new = compile_source(_read(args.new), args.new, version=args.new_version)
        overrides = None
        if args.transformers:
            overrides = _parse_transformer_overrides(_read(args.transformers))
        prepared = prepare(
            old, new, args.old_version, args.new_version,
            transformer_overrides=overrides,
        )
        targets.append((
            f"{args.old_version}->{args.new_version}",
            old,
            prepared,
            None,
            None,
        ))

    if args.explain:
        from .analysis.explain import explain_restriction

        for label, old, prepared, _, _ in targets:
            if len(targets) > 1:
                print(f"== {label}")
            print(explain_restriction(old, prepared, args.explain,
                                      inloop_osr=not args.paper_fidelity))
        return 0

    reports = [
        (
            label,
            analyze_update(old, prepared,
                           inloop_osr=not args.paper_fidelity),
            expect_errors,
        )
        for label, old, prepared, expect_errors, _ in targets
    ]

    gate_failures = []
    gate_status = {}
    if args.superset_gate:
        for (label, _, prepared, _, boot_info), (_, report, _) in zip(
            targets, reports
        ):
            if boot_info is None:
                print("--superset-gate needs --app/--all-apps (it boots the "
                      "bundled application to compare against the prediction)",
                      file=sys.stderr)
                return 2
            extra = _lint_superset_gate(boot_info, prepared, report)
            gate_status[label] = "ok" if not extra else "FAIL"
            if extra:
                gate_failures.append((label, sorted(extra)))

    if args.sizes_out:
        rows = []
        for (label, old, prepared, _, boot_info) in targets:
            spec = prepared.spec
            raw = diff(old, prepared.new_classfiles,
                       spec.old_version, spec.new_version, minimize=False)
            row = {
                "update": label,
                "restricted_before": raw.restricted_size(),
                "restricted_after": spec.restricted_size(),
                "equivalent_methods": len(spec.equivalent_methods),
                "escaped_category2": len(spec.escaped_indirect),
            }
            if boot_info is not None:
                row["app"], row["from_version"], row["to_version"] = boot_info
            if args.superset_gate:
                row["superset_gate"] = gate_status.get(label, "")
            rows.append(row)
        with open(args.sizes_out, "w") as handle:
            json_module.dump(rows, handle, indent=2)
            handle.write("\n")
        shrunk = sum(
            1 for row in rows
            if row["restricted_after"] < row["restricted_before"]
        )
        print(f"[sizes] restricted sets shrank on {shrunk} of {len(rows)} "
              f"updates; written to {args.sizes_out}", file=sys.stderr)

    if args.json:
        payload = [
            dict(update=label, **report.to_dict())
            for label, report, _ in reports
        ]
        print(json_module.dumps(
            payload[0] if len(payload) == 1 else payload, indent=2
        ))
    elif args.bc_verdict:
        for label, report, _ in reports:
            if len(reports) > 1:
                print(f"== {label}")
            if report.bc_verdict is not None:
                print(report.bc_verdict.render())
            else:
                print("bc-verdict: unavailable (analysis did not run)")
    elif args.osr_plan:
        for label, report, _ in reports:
            if len(reports) > 1:
                print(f"== {label}")
            if report.osr_plans is not None:
                print(report.osr_plans.render())
            else:
                print("osr-plan: unavailable "
                      "(the osrmap pass was disabled)")
    else:
        for label, report, _ in reports:
            print(f"== {label}")
            print(report.render())

    for label, extra in gate_failures:
        print(f"[superset-gate] {label}: VM restricts methods the analyzer "
              f"missed: {', '.join(str(key) for key in extra)}",
              file=sys.stderr)

    if args.check_expected:
        failures = []
        for label, report, expect_errors in reports:
            # With the osrmap pass on, the statically predicted aborts are
            # rescued: their DSU-SP01 errors are downgraded to warnings, so
            # *no* update may report errors. --paper-fidelity restores the
            # original expectation (errors on exactly the predicted aborts).
            expect_errors = bool(expect_errors) and args.paper_fidelity
            if report.has_errors and not expect_errors:
                failures.append(
                    f"{label}: unexpected error-severity diagnostics "
                    f"({', '.join(d.code for d in report.errors())})"
                )
            elif expect_errors and not report.has_errors:
                failures.append(
                    f"{label}: expected a statically predicted abort, "
                    f"but the analyzer reports no errors"
                )
        # The rescued surface must not drift: fully-planned osrmap reports
        # on exactly the registry's EXPECTED_OSR_RESCUED pairs.
        if not args.paper_fidelity:
            for (label, _, _, _, boot_info), (_, report, _) in zip(
                targets, reports
            ):
                if boot_info is None or report.osr_plans is None:
                    continue
                rescue_expected = boot_info in EXPECTED_OSR_RESCUED
                planned = report.osr_plans.fully_planned
                if planned and not rescue_expected:
                    failures.append(
                        f"{label}: the osrmap pass verified plans for all "
                        f"blocking methods, but the registry does not "
                        f"record this pair as OSR-rescued (drift)"
                    )
                elif rescue_expected and not planned:
                    failures.append(
                        f"{label}: registry records this pair as "
                        f"OSR-rescued, but the osrmap pass could not plan "
                        f"every blocking method "
                        f"({report.osr_plans.summary()})"
                    )
        # The con-freeness verdicts must also match the registry: exactly
        # the recorded pairs classify bypass-eligible, nothing else.
        for (label, _, _, _, boot_info), (_, report, _) in zip(
            targets, reports
        ):
            if boot_info is None or report.bc_verdict is None:
                continue
            expected_bc = expected_bypass_eligible(*boot_info)
            if report.bc_verdict.eligible and not expected_bc:
                failures.append(
                    f"{label}: classified bypass-eligible, but the "
                    f"registry does not record it as such"
                )
            elif expected_bc and not report.bc_verdict.eligible:
                violated = ", ".join(
                    sorted({s.rule for s in report.bc_verdict.violations()})
                )
                failures.append(
                    f"{label}: expected bypass-eligible, but the "
                    f"con-freeness analyzer reports requires-safepoint "
                    f"(violated: {violated})"
                )
        for failure in failures:
            print(f"[check-expected] {failure}", file=sys.stderr)
        return 1 if failures or gate_failures else 0
    if gate_failures:
        return 1
    return 1 if any(report.has_errors for _, report, _ in reports) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Jvolve reproduction: run and dynamically update jmini programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="compile and run a jmini program")
    run.add_argument("file")
    run.add_argument("--main", default="Main")
    run.add_argument("--until-ms", type=float, default=None)
    run.add_argument("--max-instructions", type=int, default=50_000_000)
    run.add_argument("--heap-cells", type=int, default=1 << 18)
    run.set_defaults(fn=cmd_run)

    disasm = sub.add_parser("disasm", help="disassemble compiled classes")
    disasm.add_argument("file")
    disasm.add_argument("--class-name", default=None)
    disasm.set_defaults(fn=cmd_disasm)

    diff = sub.add_parser("diff", help="UPT classification of two versions")
    diff.add_argument("old")
    diff.add_argument("new")
    diff.add_argument("--old-version", default="1.0")
    diff.add_argument("--new-version", default="2.0")
    diff.add_argument("--spec-out", default=None,
                      help="write the update specification file (JSON)")
    diff.set_defaults(fn=cmd_diff)

    update = sub.add_parser(
        "update", help="run the old version and apply the new one dynamically"
    )
    update.add_argument("old")
    update.add_argument("new")
    update.add_argument("--old-version", default="1.0")
    update.add_argument("--new-version", default="2.0")
    update.add_argument("--main", default="Main")
    update.add_argument("--at", type=float, default=100.0,
                        help="simulated ms at which to request the update")
    update.add_argument("--timeout-ms", type=float, default=15_000.0,
                        help="per-round DSU safe-point window in simulated ms "
                             "(default: the paper's 15 s)")
    update.add_argument("--dsu-retries", type=int, default=0,
                        help="extra safe-point acquisition rounds after the "
                             "first window expires")
    update.add_argument("--dsu-backoff", type=float, default=2.0,
                        help="multiplier applied to each successive round's "
                             "window (exponential backoff)")
    update.add_argument("--until-ms", type=float, default=10_000.0)
    update.add_argument("--max-instructions", type=int, default=50_000_000)
    update.add_argument("--heap-cells", type=int, default=1 << 18)
    update.add_argument("--transformers", default=None,
                        help="file of per-class transformer overrides "
                             "separated by '=== ClassName' lines")
    update.add_argument("--dsu-heap-grow", action="store_true",
                        help="let the update collection grow the heap in "
                             "place when the to-space sizing pre-flight "
                             "predicts the double copy of updated objects "
                             "will not fit (default: abort with reason "
                             "'heap-preflight')")
    update.add_argument("--dsu-lint", choices=("off", "warn", "strict"),
                        default="off",
                        help="run the static update-safety analyzer before "
                             "signalling the VM; 'strict' refuses updates "
                             "with error-severity diagnostics up front")
    update.add_argument("--bypass", choices=("off", "auto", "require"),
                        default="off",
                        help="immediate-bypass mode: 'auto' lets "
                             "bypass-eligible (con-free, method-body-only) "
                             "updates install with zero pause and no safe "
                             "point; 'require' aborts instead of falling "
                             "back to the safe-point path")
    update.add_argument("--inloop-osr", choices=("off", "auto"),
                        default="auto",
                        help="in-loop OSR rescue: 'auto' statically plans "
                             "frame remaps for restricted methods that "
                             "block forever and applies them after the "
                             "retry budget burns down, instead of aborting")
    update.add_argument("--dsu-transform", choices=("eager", "lazy"),
                        default="eager",
                        help="object transformation mode: 'eager' runs the "
                             "paper's stop-the-world update collection "
                             "inside the pause; 'lazy' installs the new "
                             "code immediately and transforms changed-class "
                             "objects on first touch behind a read barrier, "
                             "draining the remainder in scheduler idle "
                             "slices (pause no longer scales with heap "
                             "size)")
    update.add_argument("--paper-fidelity", action="store_true",
                        help="disable the in-loop OSR rescue (forces "
                             "--inloop-osr off): blocked-forever updates "
                             "abort the way the paper's §4 reports")
    update.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write the run's span tree as Chrome "
                             "trace_event JSON (Perfetto-loadable)")
    update.set_defaults(fn=cmd_update)

    trace = sub.add_parser(
        "trace",
        help="run one bundled update under light load and export a "
             "phase-attributed Chrome trace plus a pause breakdown",
    )
    trace.add_argument("--app", required=True,
                       help="bundled application (jetty, javaemail, crossftp)")
    trace.add_argument("--update", required=True, metavar="FROM-TO",
                       help="update pair, e.g. 1.3.1-1.3.2")
    trace.add_argument("--at", type=float, default=300.0,
                       help="simulated ms at which to request the update")
    trace.add_argument("--timeout-ms", type=float, default=1_000.0,
                       help="per-round DSU safe-point window in simulated ms")
    trace.add_argument("--until-ms", type=float, default=4_500.0)
    trace.add_argument("--trace-out", default=None, metavar="FILE",
                       help="output path (default: APP-FROM-TO.trace.json)")
    trace.add_argument("--spans", action="store_true",
                       help="also print the span tree to stdout")
    trace.add_argument("--min-span-ms", type=float, default=0.0,
                       help="with --spans: hide spans shorter than this")
    trace.set_defaults(fn=cmd_trace)

    lint = sub.add_parser(
        "dsu-lint",
        help="statically predict whether/why a dynamic update can land "
             "(call graph, restriction closure, safe-point reachability, "
             "transformer type checking)",
    )
    lint.add_argument("old", nargs="?", default=None)
    lint.add_argument("new", nargs="?", default=None)
    lint.add_argument("--old-version", default="1.0")
    lint.add_argument("--new-version", default="2.0")
    lint.add_argument("--transformers", default=None,
                      help="file of per-class transformer overrides "
                           "separated by '=== ClassName' lines")
    lint.add_argument("--app", default=None,
                      help="lint every consecutive update of a bundled app "
                           "(jetty, javaemail, crossftp)")
    lint.add_argument("--all-apps", action="store_true",
                      help="lint every bundled update of every app")
    lint.add_argument("--from-version", default=None,
                      help="with --app: lint only this update pair")
    lint.add_argument("--to-version", default=None)
    lint.add_argument("--json", action="store_true",
                      help="machine-readable report (for the CI gate)")
    lint.add_argument("--bc-verdict", action="store_true",
                      help="print only the con-freeness verdict and its "
                           "full explanation chain: is this update eligible "
                           "for the zero-pause immediate bypass?")
    lint.add_argument("--osr-plan", action="store_true",
                      help="print only the in-loop OSR mapping verdicts: "
                           "for every restricted method that blocks "
                           "forever, the statically verified frame remap "
                           "(pc map, local moves, compensation) or the "
                           "DSU-OM refusal explaining why none exists")
    lint.add_argument("--paper-fidelity", action="store_true",
                      help="disable the osrmap pass: blocked-forever "
                           "updates keep their DSU-SP01 errors and "
                           "--check-expected expects them (the paper's "
                           "20-of-22 configuration)")
    lint.add_argument("--check-expected", action="store_true",
                      help="CI mode: fail unless no update reports error "
                           "diagnostics, the osrmap pass verifies plans on "
                           "exactly the registry's OSR-rescued pairs, and "
                           "the con-freeness verdicts match the registry's "
                           "bypass-eligible set exactly; with "
                           "--paper-fidelity, errors must instead appear "
                           "on exactly the statically predicted aborts")
    lint.add_argument("--explain", metavar="CLASS.METHOD", default=None,
                      help="explain why one method is (or is not) in the "
                           "restricted set: category, semantic-diff proof, "
                           "per-site category-2 escape verdicts, inline "
                           "chains (accepts Class.method or "
                           "Class.method(descriptor))")
    lint.add_argument("--superset-gate", action="store_true",
                      help="with --app/--all-apps: boot the old version, "
                           "opt-compile every method, and fail if the VM "
                           "restricts anything the analyzer did not predict "
                           "(soundness check for the minimizer)")
    lint.add_argument("--sizes-out", metavar="FILE", default=None,
                      help="write per-update restricted-set sizes before and "
                           "after semantic-diff minimization as JSON")
    lint.set_defaults(fn=cmd_dsu_lint)

    report = sub.add_parser(
        "report",
        help="regenerate every committed artifact in benchmark_results/ "
             "and exit 1 if any departs from its expected shape",
    )
    report.add_argument("--scale", choices=("small", "full"), default="small",
                        help="'small' produced the committed artifacts; "
                             "'full' runs the paper figures at larger heaps")
    report.add_argument("--out-dir", default="benchmark_results")
    report.set_defaults(fn=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
