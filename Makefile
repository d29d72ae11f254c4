# Convenience targets; everything is plain dune underneath.

.PHONY: all build check test bench bench-quick micro examples lint-models lint-json check-cli replay-corpus check-parallel check-smt check-obs check-taint check-topo check-greybox check-scale clean

MODELS = middleblock tor wan cerberus figure2

all: build

build:
	dune build @all

# CI entry point: everything (library, CLI, bench, examples, tests) compiles
# with the dev profile's warnings-as-errors, the whole suite passes, and
# every shipped model is lint-clean at severity error.
check:
	dune build @all
	dune runtest
	$(MAKE) lint-models
	$(MAKE) lint-json
	$(MAKE) check-cli
	$(MAKE) replay-corpus
	$(MAKE) check-parallel
	$(MAKE) check-smt
	$(MAKE) check-obs
	$(MAKE) check-taint
	$(MAKE) check-topo
	$(MAKE) check-greybox
	$(MAKE) check-scale

# CLI-boundary gate: an unknown fault id or catalogue name, and a count out
# of range (--batches < 0, --jobs/--shards < 1, --scale <= 0), must each be
# a usage error that names the bad value, never an uncaught exception or a
# silently clamped run; --batches 0 stays valid.
check-cli:
	dune build @all
	sh test/cli_errors.sh $(SWITCHV)

# Regression-corpus gate: every archived incident in the golden corpus must
# still reproduce on a stack seeded with the fault it was captured under
# (the corpus is live, not rotted), and none may reproduce on a clean stack
# (no false regressions). Both legs exit non-zero on violation.
replay-corpus:
	dune exec bin/switchv_cli.exe -- replay -m middleblock --fault PINS-019 \
	  --corpus test/fixtures/corpus.jsonl --expect-reproduce
	dune exec bin/switchv_cli.exe -- replay -m middleblock \
	  --corpus test/fixtures/corpus.jsonl

# Parallel-determinism gate: a seeded faulty validation must archive a
# byte-identical regression corpus at --jobs 4 and --jobs 1 (same --shards,
# so the decomposition is fixed and only the scheduling differs), and a
# clean parallel run must exit 0. Incident-bearing runs must exit 1, the
# findings code (never 124, a usage error, or 125, a crash).
check-parallel:
	rm -f /tmp/swv_par_1.jsonl /tmp/swv_par_4.jsonl
	dune exec bin/switchv_cli.exe -- validate -m middleblock --fault PINS-019 \
	  --batches 4 --shards 4 --jobs 1 --save-corpus /tmp/swv_par_1.jsonl >/dev/null; test $$? -eq 1
	dune exec bin/switchv_cli.exe -- validate -m middleblock --fault PINS-019 \
	  --batches 4 --shards 4 --jobs 4 --save-corpus /tmp/swv_par_4.jsonl >/dev/null; test $$? -eq 1
	cmp /tmp/swv_par_1.jsonl /tmp/swv_par_4.jsonl
	dune exec bin/switchv_cli.exe -- validate -m middleblock \
	  --batches 4 --shards 4 --jobs 4 >/dev/null
	rm -f /tmp/swv_par_1.jsonl /tmp/swv_par_4.jsonl

# Incremental-SMT gate, two legs. (1) The property-based differential suite
# at its fixed seed, then a 2-second randomized soak at a fresh seed (the
# seed is printed on failure, so a soak hit is reproducible). (2) On every
# built-in model, a seeded faulty validation (findings: exit 1) must
# archive a byte-identical regression corpus with the incremental pipeline
# on and off — canonical witness models make the two solving strategies,
# and the search resets between goal groups, indistinguishable in every
# output byte.
check-smt:
	dune build @all
	dune exec test/test_smt_diff.exe -- -e
	SWITCHV_QGEN_SEED=$$$$ SWITCHV_QGEN_SOAK_MS=2000 \
	  dune exec test/test_smt_diff.exe -- -e soak
	for m in $(MODELS); do \
	  rm -f /tmp/swv_smt_inc.jsonl /tmp/swv_smt_scr.jsonl; \
	  $(SWITCHV) validate -m $$m --fault PINS-019 --batches 4 \
	    --save-corpus /tmp/swv_smt_inc.jsonl >/dev/null; test $$? -eq 1 || exit 1; \
	  $(SWITCHV) validate -m $$m --fault PINS-019 --batches 4 --no-incremental \
	    --save-corpus /tmp/swv_smt_scr.jsonl >/dev/null; test $$? -eq 1 || exit 1; \
	  cmp /tmp/swv_smt_inc.jsonl /tmp/swv_smt_scr.jsonl || exit 1; \
	done
	rm -f /tmp/swv_smt_inc.jsonl /tmp/swv_smt_scr.jsonl

# Observability gate, four legs. (1) Live exposition: a faulted sharded
# campaign serves /metrics while running; poll (with switchv top, the
# dependency-free curl) until the live coverage gauge goes nonzero, lint
# the Prometheus exposition format, fetch /snapshot.json and /healthz,
# then interrupt the campaign with SIGINT and verify the --trace file was
# still published atomically (exists, no torn final line). (2) Coverage
# determinism: --coverage-out maps at --jobs 1 and --jobs 4 must be
# byte-identical. (3) Trace stitching: a --jobs trace converts to Chrome
# format with one root and zero orphan spans (trace-export exits non-zero
# otherwise). (4) Overhead budget: the obs_overhead bench artifact must
# show telemetry within its budget on the genpackets/inject hot paths.
OBS_PORT = 19473
SWITCHV = ./_build/default/bin/switchv_cli.exe
check-obs:
	dune build @all
	rm -f /tmp/swv_obs_cov1.txt /tmp/swv_obs_cov4.txt /tmp/swv_obs_trace.jsonl \
	  /tmp/swv_obs_live.jsonl /tmp/swv_obs_chrome.json
	$(SWITCHV) validate -m middleblock --fault PINS-019 --scale 0.2 \
	  --batches 4 --shards 4 --jobs 4 --metrics-port $(OBS_PORT) \
	  --trace /tmp/swv_obs_live.jsonl >/dev/null 2>&1 & \
	pid=$$!; \
	up=0; \
	for i in $$(seq 1 300); do \
	  cov=$$($(SWITCHV) top --port $(OBS_PORT) --fetch /metrics 2>/dev/null \
	    | awk '$$1 == "switchv_edges_covered" && $$2 + 0 > 0 { print $$2 }'); \
	  if [ -n "$$cov" ]; then up=1; break; fi; \
	  sleep 0.2; \
	done; \
	if [ $$up -ne 1 ]; then echo "check-obs: live coverage gauge never went nonzero"; kill $$pid 2>/dev/null; exit 1; fi; \
	echo "check-obs: live switchv_edges_covered=$$cov"; \
	$(SWITCHV) top --port $(OBS_PORT) --lint || { kill $$pid 2>/dev/null; exit 1; }; \
	$(SWITCHV) top --port $(OBS_PORT) --once || { kill $$pid 2>/dev/null; exit 1; }; \
	$(SWITCHV) top --port $(OBS_PORT) --fetch /snapshot.json >/dev/null || { kill $$pid 2>/dev/null; exit 1; }; \
	$(SWITCHV) top --port $(OBS_PORT) --fetch /healthz | grep -q ok || { kill $$pid 2>/dev/null; exit 1; }; \
	kill -INT $$pid 2>/dev/null; \
	wait $$pid; true
	test -s /tmp/swv_obs_live.jsonl
	test -z "$$(tail -c 1 /tmp/swv_obs_live.jsonl)"
	$(SWITCHV) validate -m middleblock --fault PINS-019 --batches 4 \
	  --shards 4 --jobs 1 --coverage-out /tmp/swv_obs_cov1.txt >/dev/null; test $$? -eq 1
	$(SWITCHV) validate -m middleblock --fault PINS-019 --batches 4 \
	  --shards 4 --jobs 4 --coverage-out /tmp/swv_obs_cov4.txt \
	  --trace /tmp/swv_obs_trace.jsonl >/dev/null; test $$? -eq 1
	cmp /tmp/swv_obs_cov1.txt /tmp/swv_obs_cov4.txt
	$(SWITCHV) trace-export --chrome -o /tmp/swv_obs_chrome.json \
	  /tmp/swv_obs_trace.jsonl
	dune exec bench/main.exe -- quick obs_overhead
	rm -f /tmp/swv_obs_cov1.txt /tmp/swv_obs_cov4.txt /tmp/swv_obs_trace.jsonl \
	  /tmp/swv_obs_live.jsonl /tmp/swv_obs_chrome.json

# Static-analysis gate: every built-in role model and every example model
# must carry zero error-severity findings (warnings/info are advisory and
# printed for the record). `switchv lint` exits non-zero on errors.
lint-models:
	for m in $(MODELS); do \
	  dune exec bin/switchv_cli.exe -- lint -m $$m --severity error || exit 1; \
	done
	for f in examples/models/*.p4; do \
	  dune exec bin/switchv_cli.exe -- lint -f $$f --severity error || exit 1; \
	done

# Machine-readable lint gate: --json output must be well-formed JSON with
# the stable field set, deterministic across runs (byte-identical), and
# must carry the taint diagnostics (P4A009/P4A010) on the WCMP role model.
lint-json:
	dune build @all
	rm -f /tmp/swv_lint_a.json /tmp/swv_lint_b.json
	$(SWITCHV) lint -m middleblock --json > /tmp/swv_lint_a.json
	$(SWITCHV) lint -m middleblock --json > /tmp/swv_lint_b.json
	cmp /tmp/swv_lint_a.json /tmp/swv_lint_b.json
	python3 -m json.tool /tmp/swv_lint_a.json >/dev/null
	grep -q '"code":"P4A009"' /tmp/swv_lint_a.json
	grep -q '"code":"P4A010"' /tmp/swv_lint_a.json
	grep -q '"severity"' /tmp/swv_lint_a.json
	grep -q '"loc"' /tmp/swv_lint_a.json
	grep -q '"message"' /tmp/swv_lint_a.json
	rm -f /tmp/swv_lint_a.json /tmp/swv_lint_b.json

# Taint-oracle gate, four legs. (1) Equivalence: on a hash-free model
# (figure2's taint summary is empty) a campaign must archive a
# byte-identical regression corpus with the taint machinery on and off —
# set-valued verdicts and goal classification change nothing when there is
# nothing tainted. (2) Soundness: a clean WCMP model under seeded hashing
# must validate with zero incidents — the set-valued oracle admits every
# legitimate member choice, no false positives, no hash-round enumeration
# on the fast path. (3) Sensitivity: a fault that perturbs the WCMP member
# set (PINS-051) must still be detected — escalation keeps the oracle
# exact. (4) Overhead/effect: the taint bench artifact must show goals
# reclassified and SMT attempts skipped within budget.
check-taint:
	dune build @all
	rm -f /tmp/swv_taint_on.jsonl /tmp/swv_taint_off.jsonl
	$(SWITCHV) validate -m figure2 --batches 4 \
	  --save-corpus /tmp/swv_taint_on.jsonl >/dev/null; test $$? -eq 1
	$(SWITCHV) validate -m figure2 --batches 4 --no-taint \
	  --save-corpus /tmp/swv_taint_off.jsonl >/dev/null; test $$? -eq 1
	cmp /tmp/swv_taint_on.jsonl /tmp/swv_taint_off.jsonl
	$(SWITCHV) validate -m middleblock --batches 4 >/dev/null
	$(SWITCHV) validate -m middleblock --batches 4 --fault PINS-051 >/dev/null; test $$? -eq 1
	dune exec bench/main.exe -- quick taint
	rm -f /tmp/swv_taint_on.jsonl /tmp/swv_taint_off.jsonl

# Fabric gate, three legs. (1) Soundness: an unseeded 4-switch fabric
# campaign must be incident-free on every topology shape — the stack
# fabric and the model fabric agree hop-for-hop and end-to-end on a clean
# switch. (2) Localization: a TTL-trap fault seeded on the middle switch
# of a 3-switch line must be reported, and every hop-attributed
# fingerprint must name sw1 — never an innocent neighbour that merely
# forwarded the perturbed packet. The archived corpus must be
# byte-identical at --jobs 1 and --jobs 4 (same --shards). (3) The fabric
# bench artifact must report 100% localization accuracy over the
# data-plane fault kinds. Incident-bearing runs must exit 1, the findings
# code.
check-topo:
	dune build @all
	for t in line star mesh leaf_spine; do \
	  $(SWITCHV) fabric -m middleblock --topo $$t --switches 4 >/dev/null || exit 1; \
	done
	rm -f /tmp/swv_topo_rep.txt /tmp/swv_topo_1.jsonl /tmp/swv_topo_4.jsonl
	$(SWITCHV) fabric -m middleblock --topo line --switches 3 \
	  --fault TOPO-001 --fault-switch 1 --shards 4 --jobs 1 \
	  --save-corpus /tmp/swv_topo_1.jsonl > /tmp/swv_topo_rep.txt; test $$? -eq 1
	grep -q 'h=sw1' /tmp/swv_topo_rep.txt
	! grep -q 'h=sw0' /tmp/swv_topo_rep.txt
	! grep -q 'h=sw2' /tmp/swv_topo_rep.txt
	$(SWITCHV) fabric -m middleblock --topo line --switches 3 \
	  --fault TOPO-001 --fault-switch 1 --shards 4 --jobs 4 \
	  --save-corpus /tmp/swv_topo_4.jsonl >/dev/null; test $$? -eq 1
	cmp /tmp/swv_topo_1.jsonl /tmp/swv_topo_4.jsonl
	dune exec bench/main.exe -- quick fabric
	rm -f /tmp/swv_topo_rep.txt /tmp/swv_topo_1.jsonl /tmp/swv_topo_4.jsonl

# Greybox gate, three legs. (1) Determinism: with the feedback loop on
# (the default), a seeded faulty validation must archive a byte-identical
# regression corpus at --jobs 1 and --jobs 4 — shard-local novelty maps
# keep coverage-guided scheduling jobs-invariant. (2) Off-switch:
# --no-greybox must reproduce the blind (pre-feedback) pipeline exactly —
# the archived corpus is compared byte-for-byte against a golden corpus
# captured before the feedback loop existed. (3) Effect: the greybox bench
# artifact must show guided probing covering strictly more model edges
# than a budget-matched blind baseline, without losing any catalogued
# fault. Incident-bearing runs must exit 1, the findings code.
check-greybox:
	dune build @all
	rm -f /tmp/swv_gb_1.jsonl /tmp/swv_gb_4.jsonl /tmp/swv_gb_off.jsonl
	$(SWITCHV) validate -m middleblock --fault PINS-019 \
	  --batches 4 --shards 4 --jobs 1 --save-corpus /tmp/swv_gb_1.jsonl >/dev/null; test $$? -eq 1
	$(SWITCHV) validate -m middleblock --fault PINS-019 \
	  --batches 4 --shards 4 --jobs 4 --save-corpus /tmp/swv_gb_4.jsonl >/dev/null; test $$? -eq 1
	cmp /tmp/swv_gb_1.jsonl /tmp/swv_gb_4.jsonl
	$(SWITCHV) validate -m middleblock --fault PINS-019 --no-greybox \
	  --batches 4 --shards 4 --jobs 4 --save-corpus /tmp/swv_gb_off.jsonl >/dev/null; test $$? -eq 1
	cmp /tmp/swv_gb_off.jsonl test/fixtures/greybox_blind.golden.jsonl
	dune exec bench/main.exe -- quick greybox
	rm -f /tmp/swv_gb_1.jsonl /tmp/swv_gb_4.jsonl /tmp/swv_gb_off.jsonl

# Scale gate, three legs. (1) Equivalence: a seeded faulty validation must
# archive a byte-identical regression corpus with the staged evaluator on
# (the default) and off (--no-compile), at --jobs 1 and --jobs 4 — the
# compiled closures + indexed match structures change throughput, never a
# single output byte — and so must a seeded fabric campaign, whose stacks
# and model nodes all follow its one evaluator. (2) The indexed-match differential suite (property-
# based index-vs-scan, the pinned ternary tie-break, the compiled-vs-
# interpreted soak). (3) Throughput: the quick scale bench artifact must
# show >= 10x packets/sec at the 100k-entry tier (its built-in gate).
check-scale:
	dune build @all
	rm -f /tmp/swv_sc_c1.jsonl /tmp/swv_sc_c4.jsonl /tmp/swv_sc_i1.jsonl /tmp/swv_sc_i4.jsonl
	$(SWITCHV) validate -m middleblock --fault PINS-019 \
	  --batches 4 --shards 4 --jobs 1 --save-corpus /tmp/swv_sc_c1.jsonl >/dev/null; test $$? -eq 1
	$(SWITCHV) validate -m middleblock --fault PINS-019 \
	  --batches 4 --shards 4 --jobs 4 --save-corpus /tmp/swv_sc_c4.jsonl >/dev/null; test $$? -eq 1
	$(SWITCHV) validate -m middleblock --fault PINS-019 --no-compile \
	  --batches 4 --shards 4 --jobs 1 --save-corpus /tmp/swv_sc_i1.jsonl >/dev/null; test $$? -eq 1
	$(SWITCHV) validate -m middleblock --fault PINS-019 --no-compile \
	  --batches 4 --shards 4 --jobs 4 --save-corpus /tmp/swv_sc_i4.jsonl >/dev/null; test $$? -eq 1
	cmp /tmp/swv_sc_c1.jsonl /tmp/swv_sc_i1.jsonl
	cmp /tmp/swv_sc_c1.jsonl /tmp/swv_sc_c4.jsonl
	cmp /tmp/swv_sc_i1.jsonl /tmp/swv_sc_i4.jsonl
	rm -f /tmp/swv_sc_fc.jsonl /tmp/swv_sc_fi.jsonl
	$(SWITCHV) fabric -m middleblock --topo line --switches 3 \
	  --fault TOPO-001 --fault-switch 1 --shards 4 --save-corpus /tmp/swv_sc_fc.jsonl >/dev/null; test $$? -eq 1
	$(SWITCHV) fabric -m middleblock --topo line --switches 3 --no-compile \
	  --fault TOPO-001 --fault-switch 1 --shards 4 --save-corpus /tmp/swv_sc_fi.jsonl >/dev/null; test $$? -eq 1
	cmp /tmp/swv_sc_fc.jsonl /tmp/swv_sc_fi.jsonl
	dune exec test/test_match.exe -- -e
	dune exec bench/main.exe -- quick scale
	rm -f /tmp/swv_sc_c1.jsonl /tmp/swv_sc_c4.jsonl /tmp/swv_sc_i1.jsonl /tmp/swv_sc_i4.jsonl \
	  /tmp/swv_sc_fc.jsonl /tmp/swv_sc_fi.jsonl

test:
	dune runtest

test-archive:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

bench:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

bench-quick:
	dune exec bench/main.exe -- quick

micro:
	dune exec bench/main.exe -- micro

examples:
	dune exec examples/quickstart.exe
	dune exec examples/fuzz_campaign.exe
	dune exec examples/dataplane_diff.exe
	dune exec examples/model_from_source.exe
	dune exec examples/nightly_validation.exe

clean:
	dune clean
