.PHONY: install test bench tables clean perf-smoke resume-smoke bench-flow cache-smoke monitor-smoke serve-smoke fleet-smoke eco-smoke spine-smoke examples-smoke

install:
	pip install -e .

test:
	pytest tests/

test-report:
	pytest tests/ 2>&1 | tee test_output.txt

bench:
	pytest benchmarks/ --benchmark-only

bench-report:
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

tables:
	@ls benchmarks/results/*.txt 2>/dev/null | xargs -I{} sh -c 'echo; cat {}'

# Quick perf sanity check: the jobs-scaling bench on the small aes
# design, bounded so it stays a smoke test (not a measurement run).
perf-smoke:
	REPRO_PERF_DESIGN=aes REPRO_BENCH_SCALE=0.5 timeout 300 \
	pytest benchmarks/bench_perf_scaling.py --benchmark-only -q

# End-to-end flow benchmark + perf-regression gate (docs/performance.md):
# runs the flow on aes, emits bench-flow/run.json (and a fresh
# BENCH_flow.json), then diffs against the committed baseline run
# report.  Wall gate: host-normalised non-V-P&R wall time within 10%;
# QoR gate: any worsening fails.
bench-flow:
	rm -rf bench-flow && mkdir -p bench-flow
	timeout 600 python benchmarks/bench_flow_e2e.py --designs aes \
		--seed 0 --repeats 2 --run-json bench-flow/run.json \
		--json bench-flow/BENCH_flow.json --label after
	python -m repro report diff \
		benchmarks/results/bench_flow_baseline.json bench-flow/run.json \
		--rel 0.10 --stream flow.wallnorm.aes.non_vpr_total
	python -m repro report diff \
		benchmarks/results/bench_flow_baseline.json bench-flow/run.json \
		--rel 0 --stream qor.aes.hpwl

# Cross-run cache smoke (docs/performance.md "Cross-run caching"): run
# the aes flow three times against one --cache directory.  The warm
# (second) run must serve every flow stage from the cache, with no
# stage or item miss, and report the cold run's QoR byte for byte; of
# its metric streams, those both runs emit (a served stage emits none)
# must match at zero tolerance.  The third run first loses the cached
# stage records: it recomputes every stage, must serve every V-P&R item
# from the cache, and must match the cold run on every stream.
cache-smoke:
	rm -rf cache-smoke && mkdir -p cache-smoke
	for run in cold warm; do \
		timeout 300 python -m repro flow --benchmark aes --no-routing \
			--seed 3 --cache cache-smoke/cache \
			--telemetry cache-smoke/$$run --report cache-smoke/$$run.json \
			|| exit 1; \
	done
	rm -rf cache-smoke/cache/stages
	timeout 300 python -m repro flow --benchmark aes --no-routing \
		--seed 3 --cache cache-smoke/cache \
		--telemetry cache-smoke/items --report cache-smoke/items.json
	python -c "import json; \
		from repro.serve import deterministic_qor; \
		counters = lambda r: json.load(open('cache-smoke/%s/run.json' % r))['perf']['counters']; \
		cold, warm, items = counters('cold'), counters('warm'), counters('items'); \
		assert cold.get('cache.stage.store', 0) > 0 and cold.get('vpr.cache.store', 0) > 0, cold; \
		assert warm.get('cache.stage.hit', 0) == cold['cache.stage.store'], warm; \
		assert warm.get('cache.stage.miss', 0) == 0 and warm.get('vpr.cache.miss', 0) == 0, warm; \
		assert items.get('vpr.cache.hit', 0) == cold['vpr.cache.store'], items; \
		assert items.get('vpr.cache.miss', 0) == 0, items; \
		qor = lambda r: json.dumps(deterministic_qor(json.load(open('cache-smoke/%s.json' % r))), sort_keys=True); \
		assert qor('warm') == qor('cold') == qor('items'), 'QoR differs'; \
		print('cache-smoke: warm run served', warm['cache.stage.hit'], 'stages,', \
			'stage-less run', items['vpr.cache.hit'], 'items; QoR identical')"
	python -m repro report diff cache-smoke/cold/run.json \
		cache-smoke/warm/run.json --rel 0 --abs 0 \
		$$(python -c "import json; \
			streams = [set(json.load(open('cache-smoke/%s/run.json' % r))['metrics']) for r in ('cold', 'warm')]; \
			print(' '.join('--stream ' + n for n in sorted(streams[0] & streams[1])))")
	python -m repro report diff cache-smoke/cold/run.json \
		cache-smoke/items/run.json --rel 0 --abs 0

# Live-monitor smoke (docs/observability.md "Live monitoring"): launch
# a monitored flow as a subprocess, poll status.json until progress
# visibly advances (asserting monotonicity at every poll), render
# `repro top DIR --once` from a separate process mid-flight, then gate
# the sampler+progress overhead at <=5% wall on aes with byte-identical
# QoR / stream / shape hashes between the monitored and bare arms.
monitor-smoke:
	rm -rf monitor-smoke && mkdir -p monitor-smoke
	timeout 300 python benchmarks/bench_monitor_overhead.py --live
	timeout 600 python benchmarks/bench_monitor_overhead.py --gate \
		--repeats 3 --max-overhead 0.05 \
		--json monitor-smoke/BENCH_monitor.json

# Job-server smoke (docs/serving.md): boot a real `repro serve` daemon
# on an ephemeral port, drive it with concurrent closed-loop clients
# (2 designs x 2 repeats each), and gate on: zero failed jobs, warm
# cache hits > 0, p99 submit-to-done latency under 60s, warm jobs at
# least 1.3x faster than cold, a clean POST /shutdown exit, and no
# descendant of the daemon (runner zygote or runner) alive after it.
# BENCH_serve.json also records the daemon's /stats latency block.
serve-smoke:
	rm -rf serve-smoke && mkdir -p serve-smoke
	timeout 600 python benchmarks/bench_serve_load.py --gate \
		--clients 4 --designs 2 --repeats 2 --workers 2 \
		--max-p99 60 --min-speedup 1.3 \
		--json serve-smoke/BENCH_serve.json

# Distributed-sweep smoke (docs/performance.md, "Distributed sweep"):
# run the shape sweep serially, on 1 fleet worker, on 2 fleet workers,
# and on 2 workers with one armed to die mid-item, then gate on: all
# four QoR SHA-256 hashes byte-identical, the killed worker's items
# recomputed by the sweep (worker.error >= 1, item.terminal == 0), and
# every worker process reaped at close (clean shutdown).  Wall-clock is printed, not gated: fleet speed-up is not
# measurable on a shared small host (benchmarks/spine/README.md).
fleet-smoke:
	rm -rf fleet-smoke && mkdir -p fleet-smoke
	timeout 600 python benchmarks/bench_fleet_scaling.py --gate --kill \
		--json fleet-smoke/BENCH_fleet.json

# Incremental-ECO smoke (docs/performance.md "Incremental ECO"): one
# cold checkpointed base run, then a single-cell resize replayed two
# ways — a cold flow on the edited design vs `repro eco` over the
# checkpoint — gating, for an edit touching <1% of instances, on <=5%
# HPWL drift between the two answers and on a no-op edit script
# reproducing the base run's metrics bit for bit.  The cold/ECO wall
# ratio is printed, not gated (it shrinks whenever the cold flow gets
# faster); the gated ECO wall is `eco_session wall_s` on the spine
# (BENCHMARK.json, benchmarks/spine/README.md).
eco-smoke:
	rm -rf eco-smoke && mkdir -p eco-smoke
	timeout 600 python benchmarks/bench_eco.py --gate \
		--json eco-smoke/BENCH_eco.json

# Measurement-spine smoke (benchmarks/spine/README.md): the spine's own
# self-tests, then one traced sweep_cold pass that must exit 0 with
# "correct": true on its result line.  The traced pass binds its 30
# span targets by module/attribute name, so this is what catches a
# renamed or moved entry point (VPRFramework.evaluate_candidate,
# GlobalPlacer.run, solve_axis, ...) before the benchmark driver does.
spine-smoke:
	python -m pytest benchmarks/spine/tests -q
	rm -rf spine-smoke && mkdir -p spine-smoke
	timeout 600 python3 benchmarks/spine/run.py --workload sweep_cold \
		--seed 0 --seconds 15 --trace 1 > spine-smoke/traced.txt
	tail -1 spine-smoke/traced.txt | python3 -c "import json, sys; \
		result = json.loads(sys.stdin.read()); \
		assert result['correct'] is True, result; \
		rows = ('sta.graph_build_s', 'sta.update_full_s', 'sta.activity_s', 'sta.power_s', 'route.cts_s', \
			'vpr.extract_s', 'place.global_s', 'place.b2b_solve_s', 'place.problem_build_s', 'b2b.cg_iterations'); \
		zero = [n for n in rows if not result['metrics'][n]['value'] > 0]; \
		assert not zero, f'{zero} read 0: a traced STA, CTS, V-P&R or placement target is not on the path'; \
		print('spine-smoke: traced sweep_cold correct,', result['attempted'], 'operations, STA, CTS, extract and placement rows non-zero')"
	timeout 600 python3 benchmarks/spine/run.py --workload backend_ml \
		--seed 0 --seconds 15 --trace 1 > spine-smoke/traced_ml.txt
	tail -1 spine-smoke/traced_ml.txt | python3 -c "import json, sys; \
		result = json.loads(sys.stdin.read()); \
		assert result['correct'] is True, result; \
		calls = result['metrics']['ml.predict_calls']['value']; \
		assert calls > 0, 'ml.predict reads 0: a traced ML target is not on the path'; \
		rows = ('core.clustered_netlist_s', 'core.seeded_s', 'vpr.extract_s'); \
		zero = [n for n in rows if not result['metrics'][n]['value'] > 0]; \
		assert not zero, f'{zero} read 0: a traced seeded-stage or V-P&R target is not on the path'; \
		print('spine-smoke: traced backend_ml correct,', result['attempted'], 'operations,', calls, 'predict calls, seeded and extract rows non-zero')"
	timeout 600 python3 benchmarks/spine/run.py --workload eco_session \
		--seed 0 --seconds 15 --trace 1 > spine-smoke/traced_eco.txt
	tail -1 spine-smoke/traced_eco.txt | python3 -c "import json, sys; \
		result = json.loads(sys.stdin.read()); \
		assert result['correct'] is True, result; \
		build = result['metrics']['sta.graph_build_s']['value']; \
		recompiled = result['metrics']['sta.graph.recompiled']['value']; \
		assert build > 0, 'sta.graph_build_s reads 0: the traced graph build is not on the ECO path'; \
		assert 0 < recompiled < 1, f'sta.graph.recompiled {recompiled} per op: a resize keeps the graph, a structural edit rebuilds it'; \
		print('spine-smoke: traced eco_session correct,', result['attempted'], 'operations,', recompiled, 'graph rebuilds per op')"

# Crash-safety smoke: run a checkpointed flow, kill it mid-sweep with
# an injected abort, resume, and require the resumed QoR to match an
# uninterrupted baseline byte for byte (docs/recovery.md).
# Every example under examples/ end to end, at its default design
# (~25 s in all): they call the public constructors, and
# tests/test_reachability.py checks only their imports.  Each one's
# output is in examples-smoke/<name>.log, printed when it fails.
examples-smoke:
	rm -rf examples-smoke && mkdir -p examples-smoke
	@set -e; for example in examples/*.py; do \
		name=$$(basename $$example .py); \
		case $$name in \
			file_io_flow) args=examples-smoke/io ;; \
			visualize_layout) args="jpeg examples-smoke/viz" ;; \
			*) args= ;; \
		esac; \
		echo "examples-smoke: $$example"; \
		timeout 300 python $$example $$args > examples-smoke/$$name.log 2>&1 \
			|| { cat examples-smoke/$$name.log; exit 1; }; \
	done

resume-smoke:
	rm -rf resume-smoke && mkdir -p resume-smoke
	timeout 300 python -m repro flow --benchmark aes --no-routing \
		--seed 3 --report resume-smoke/base.json
	REPRO_FAULTS='abort:vpr.item.saved:#6' timeout 300 \
		python -m repro flow --benchmark aes --no-routing --seed 3 \
		--checkpoint resume-smoke/ckpt; \
		test $$? -eq 123  # the injected abort's exit code
	timeout 300 python -m repro flow --benchmark aes --no-routing \
		--seed 3 --checkpoint resume-smoke/ckpt --resume \
		--report resume-smoke/resumed.json
	python -c "import json; \
		a = json.load(open('resume-smoke/base.json')); \
		b = json.load(open('resume-smoke/resumed.json')); \
		assert a['metrics'] == b['metrics'], (a['metrics'], b['metrics']); \
		print('resume-smoke: resumed QoR identical to uninterrupted run')"
	# Cached leg: crash a run writing both stores, lose the shared cache,
	# resume with an empty one.  Items the checkpoint holds are served
	# run-locally; the rest are computed and written to both stores.
	REPRO_FAULTS='abort:vpr.item.saved:#6' timeout 300 \
		python -m repro flow --benchmark aes --no-routing --seed 3 \
		--checkpoint resume-smoke/ckpt-cached \
		--cache resume-smoke/cache; \
		test $$? -eq 123  # the injected abort's exit code
	rm -rf resume-smoke/cache
	timeout 300 python -m repro flow --benchmark aes --no-routing \
		--seed 3 --checkpoint resume-smoke/ckpt-cached --resume \
		--cache resume-smoke/cache \
		--report resume-smoke/resumed-cached.json
	python -c "import json; \
		a = json.load(open('resume-smoke/base.json')); \
		b = json.load(open('resume-smoke/resumed-cached.json')); \
		assert a['metrics'] == b['metrics'], (a['metrics'], b['metrics']); \
		print('resume-smoke: cached resume QoR identical to uncached run')"

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
