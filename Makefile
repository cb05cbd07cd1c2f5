# Convenience targets for the reproduction repo.

.PHONY: install test lint bench bench-smoke bench-pq pq-smoke bench-paper bench-core bench-loadbalance loadbalance-smoke bench-pipeline pipeline-smoke bench-serving serving-smoke bench-filter filter-smoke obs-smoke examples faults-demo clean

# smoke artifacts are throwaway CI outputs — they land in .benchmarks/
# (gitignored), never at the repo root next to the tracked trajectories
SMOKE_DIR := .benchmarks

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

lint:
	ruff check src tests benchmarks examples

# HNSW hot-path benchmark: build + search timings, recall, and the
# speedup vs the previous run recorded in BENCH_hnsw.json (perf trajectory),
# plus the dimension axis: compiled and python-fallback rows at d=32/96/128
bench:
	python benchmarks/bench_hnsw.py --dims 32,96,128

# CI-sized variant: tiny corpus, fails if recall@10 drops below the floor.
# The d=128 leg also fails if a compiler is present but the compiled
# search or build path is off, so a dimension gate cannot come back.
# The last leg disables the compiled kernels (CC=/bin/false; fresh TMPDIR
# so the .so cache can't satisfy the load) and must stay green too — the
# pure-python fallback is a supported configuration, not a degraded one.
bench-smoke:
	mkdir -p $(SMOKE_DIR)
	python benchmarks/bench_hnsw.py --tiny --min-recall 0.95 --out $(SMOKE_DIR)/BENCH_hnsw_smoke.json
	python benchmarks/bench_hnsw.py --tiny --dim 128 --require-native --min-recall 0.95 --out $(SMOKE_DIR)/BENCH_hnsw_smoke_d128.json
	TMPDIR=$$(mktemp -d) CC=/bin/false python benchmarks/bench_hnsw.py --tiny --min-recall 0.95 --out $(SMOKE_DIR)/BENCH_hnsw_smoke_nonative.json

# IVF-PQ fast-scan benchmark: ADC scan throughput vs the pre-kernel path,
# recall parity, and the batch amortization curve (trajectory recorded in
# BENCH_pq.json); fails if the scan speedup drops below 2x at equal recall
bench-pq:
	python benchmarks/bench_pq.py --min-speedup 2.0

# CI-sized variant plus the PQ contract tests
pq-smoke:
	mkdir -p $(SMOKE_DIR)
	python benchmarks/bench_pq.py --smoke --min-speedup 1.5 --min-recall 0.25 --out $(SMOKE_DIR)/BENCH_pq_smoke.json
	pytest tests/test_pq.py tests/test_hnsw_native_build.py -q

# replica-selector sweep under a Zipf-skewed workload; fails if the
# least_loaded makespan improvement at the headline replication factor
# drops below 1.5x (trajectory recorded in BENCH_loadbalance.json)
bench-loadbalance:
	python benchmarks/bench_loadbalance.py

# CI-sized variant plus the public-API snapshot test
loadbalance-smoke:
	mkdir -p $(SMOKE_DIR)
	python benchmarks/bench_loadbalance.py --smoke --out $(SMOKE_DIR)/BENCH_loadbalance_smoke.json
	pytest tests/test_public_api.py -q

# credit-window sweep under a Zipf-skewed workload; fails if a finite
# window stops beating eager dispatch on makespan / peak queue depth at
# the headline core count, if eager runs stop being bit-deterministic, if
# any window changes answers, or if dispatch credits leak (trajectory
# recorded in BENCH_pipeline.json)
bench-pipeline:
	python benchmarks/bench_pipeline.py

# CI-sized variant plus the flow-control contract tests
pipeline-smoke:
	mkdir -p $(SMOKE_DIR)
	python benchmarks/bench_pipeline.py --smoke --out $(SMOKE_DIR)/BENCH_pipeline_smoke.json
	pytest tests/test_pipeline_dispatch.py -q

# open-loop serving sweep: latency knee past the capacity point, cache
# on/off tail + makespan improvement at Zipf skew >= 1.1, and bounded-queue
# shedding; fails if serving or cache hits change answers, if the admission
# ledger stops balancing, or if either headline improvement floor is missed
# (trajectory recorded in BENCH_serving.json)
bench-serving:
	python benchmarks/bench_serving.py

# CI-sized variant plus the serving contract tests
serving-smoke:
	mkdir -p $(SMOKE_DIR)
	python benchmarks/bench_serving.py --smoke --out $(SMOKE_DIR)/BENCH_serving_smoke.json
	pytest tests/test_serving.py -q

# filtered-search selectivity x strategy sweep: pre/post recall vs the
# naive post-filter baseline, the auto crossover, and the unfiltered
# bit-identity check with metadata attached; fails if filtered recall
# stops beating the naive baseline at two or more selectivity points, if
# the measured crossover contradicts CROSSOVER_SELECTIVITY, or if
# attaching metadata changes unfiltered answers (trajectory recorded in
# BENCH_filter.json)
bench-filter:
	python benchmarks/bench_filter.py

# CI-sized variant plus the filtering + protocol contract tests
filter-smoke:
	mkdir -p $(SMOKE_DIR)
	python benchmarks/bench_filter.py --smoke --out $(SMOKE_DIR)/BENCH_filter_smoke.json
	pytest tests/test_filtering.py tests/test_searcher_protocol.py -q

# end-to-end observability smoke: gen -> build -> query with every obs
# artifact enabled, then validate the Chrome trace against the trace-event
# schema and the JSONL log against the versioned event schema (unknown
# span/instant names fail), plus the observability contract tests
# (bit-identity with tracing on/off in every execution mode)
obs-smoke:
	mkdir -p $(SMOKE_DIR)/obs
	python -m repro.cli gen SYN_1M --n-points 600 --n-queries 40 --out $(SMOKE_DIR)/obs/corpus
	python -m repro.cli build $(SMOKE_DIR)/obs/corpus/base.fvecs --out $(SMOKE_DIR)/obs/index --cores 8
	python -m repro.cli query $(SMOKE_DIR)/obs/index $(SMOKE_DIR)/obs/corpus/query.fvecs \
		--out $(SMOKE_DIR)/obs/out.ivecs --k 5 --arrival poisson:50000 \
		--trace-out $(SMOKE_DIR)/obs/trace.json \
		--events-out $(SMOKE_DIR)/obs/events.jsonl \
		--metrics-out $(SMOKE_DIR)/obs/metrics.json \
		--explain-top 2
	python -m repro.obs.validate $(SMOKE_DIR)/obs/trace.json $(SMOKE_DIR)/obs/events.jsonl
	pytest tests/test_observability.py -q

# full evaluation-section reproduction (all tables + figures + ablations)
bench-paper:
	pytest benchmarks/ --benchmark-only -s

# just the paper's tables/figures, skipping the ablation extras
bench-core:
	pytest benchmarks/test_table1_datasets.py \
	       benchmarks/test_fig3_scaling.py \
	       benchmarks/test_table2_construction.py \
	       benchmarks/test_fig4_replication.py \
	       benchmarks/test_table3_kdtree_comparison.py \
	       benchmarks/test_fig5_breakdown.py \
	       benchmarks/test_fig6_recall_vs_time.py \
	       --benchmark-only -s

# end-to-end crash + failover scenario; exits non-zero on any violated
# fault-tolerance guarantee, so CI runs it as a smoke job
faults-demo:
	python examples/faults_demo.py

examples:
	python examples/quickstart.py
	python examples/batch_recommender.py
	python examples/image_descriptor_search.py
	python examples/knn_classifier.py
	python examples/cluster_scaling_study.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
