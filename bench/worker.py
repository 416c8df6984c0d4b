"""One cold `weylab run` in a fresh interpreter.

    python3 worker.py SRC RESULT_JSON [--setup-only] [--trace DUMP_JSON]
        -- <weylab run arguments>

Times set-up (import weylab, which fills the registries, plus loading and
parsing the scenario) and the run itself (cli.main, which loads and
parses the scenario again and writes results.csv and verdicts.json), and
writes them with the exit code and ru_maxrss to RESULT_JSON.  With --trace the layers are wrapped after
set-up, and the spans are written to DUMP_JSON once the run has ended.
"""

import json
import resource
import sys
import time


def main(argv):
    sep = argv.index("--")
    opts, run_args = argv[:sep], argv[sep + 1:]
    src, result_path = opts[0], opts[1]
    setup_only = "--setup-only" in opts
    dump_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import weylab  # noqa: F401  (fills the registries)
    from weylab import cli
    cli.parse_scenarios(cli._load_scenario_text(run_args[1]))
    t1 = time.perf_counter()
    result = {"setup_s": t1 - t0}
    tracer = None
    if dump_path is not None:
        import tracing  # beside this file, so on sys.path
        tracer = tracing.Tracer()
        tracing.install(tracer)
        t1 = time.perf_counter()
    if not setup_only:
        run = cli.main if tracer is None else tracer.wrap("cli.run", cli.main)
        try:
            result["exit_code"] = run(run_args)
        except Exception as exc:  # a crash is a failed run, with its timing
            result["exit_code"] = None
            result["error"] = "%s: %s" % (type(exc).__name__, exc)
        result["wall_s"] = time.perf_counter() - t1
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        with open(dump_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts,
                       "distinct_profiles": len(tracer.profile_keys)}, fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0 if result.get("exit_code", 0) is not None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
