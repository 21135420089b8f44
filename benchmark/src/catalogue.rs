//! The names this benchmark defines: workloads, end-to-end metrics
//! with their regression bounds, and per-layer metrics with the
//! end-to-end metric each is predicted to move. `BENCHMARK.json` and
//! the catalogue section of `README.md` are printed from these tables
//! (`--print-manifest`, `--print-catalogue`), and a test holds the
//! committed files to that output, so they cannot drift from what the
//! harness reports.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fixed_generate",
        why: "Table 1 fixed-size row: unique-seed 128x128 Generate+Legalize on the in-process engine, closed loop, 8 jobs outstanding; the denoiser does >95% of the work; no wire, agent or cache hit",
    },
    Workload {
        name: "free_size_extend",
        why: "Table 1 free-size rows: 2x/4x Out- and In-Painting Extend+Legalize, one closed-loop user per CPU; cp_extend scheduling and 16x-cell legalize carry it; the memory claim shows in peak_rss_mb",
    },
    Workload {
        name: "chat_sessions",
        why: "natural-language path: 8-turn dialogs, 12 live over an 8-session store spilling ahead to disk, Zipf-picked by one closed-loop user per CPU; only here agent, session store and persist I/O weigh",
    },
    Workload {
        name: "serve_tcp_mixed",
        why: "real chatpattern-serve child on product defaults; one TCP connection per CPU, 4 requests outstanding; 40/25/15/10/5/5 Legalize/hot Generate/unique Generate/Modify/Evaluate/Stats: wire- and queue-bound",
    },
    Workload {
        name: "router_tcp_mixed",
        why: "the identical request stream through chatpattern-router over single-thread serve children (same engine threads in total): the gap to serve_tcp_mixed is the router hop and key-hash sharding alone",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "one set-up at the head of every round, at nominal host speed, median round: ChatPattern build() in-process, spawn to `listening on` for the TCP workloads",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        what: "validated operations (DRC-clean patterns, extends, turns, requests) of a round over its slice interval, first submission to last completion, at nominal host speed, median round",
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "median latency of every validated operation of the run as its client sees it, each at the nominal host speed of its round (free_size_extend: the 4x operations)",
    },
    EndToEnd {
        name: "op_ms_p95",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "95th-percentile latency of the same operations",
    },
    EndToEnd {
        name: "legality_rate",
        unit: "share",
        better: "higher",
        bound: 0.02,
        what: "share of the fixed prefix of delivered topologies that legalize DRC-clean (paper Eq. 7)",
    },
    EndToEnd {
        name: "diversity_bits",
        unit: "bits",
        better: "higher",
        bound: 0.008,
        what: "Shannon entropy of the (cx, cy) complexities of the same prefix (paper Eq. 8); the relative bound is under 0.05 bits on every workload",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
        what: "VmHWM of the process hosting the engine: the harness in-process, serve (plus router) children over TCP",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Workloads whose traced run measures it (0 elsewhere: bypassed).
    pub on: &'static str,
    /// `metric@workload` it is predicted to move.
    pub moves: &'static str,
    pub what: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    on: &'static str,
    moves: &'static str,
    what: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        on,
        moves,
        what,
    }
}

const IN_PROCESS: &str = "fixed_generate, free_size_extend, chat_sessions";
const TCP: &str = "serve_tcp_mixed, router_tcp_mixed";
const ALL: &str = "all";

pub const PER_LAYER: [PerLayer; 61] = [
    layer("core.build_ms", "ms", "lower", IN_PROCESS, "setup_s@in-process", "ChatPatternBuilder::build(): dataset synthesis + MRF fit"),
    layer("serve.listen_ms", "ms", "lower", "serve_tcp_mixed", "setup_s@serve_tcp_mixed", "chatpattern-serve spawn to `listening on`"),
    layer("router.listen_ms", "ms", "lower", "router_tcp_mixed", "setup_s@router_tcp_mixed", "chatpattern-router spawn (workers included) to `listening on`"),
    layer("cp_diffusion.sample_ms", "ms", "lower", "fixed_generate, free_size_extend, chat_sessions, serve_tcp_mixed", "ops_per_s@fixed_generate, op_ms_p50@free_size_extend, op_ms_p50@chat_sessions; little on op_ms_p50@serve_tcp_mixed", "system.model().sample of one window-sized topology"),
    layer("cp_diffusion.step_us", "us", "lower", "fixed_generate, free_size_extend, chat_sessions, serve_tcp_mixed", "as cp_diffusion.sample_ms", "sample_ms divided by the K reverse steps"),
    layer("cp_diffusion.samples", "count", "lower", ALL, "ops_per_s@fixed_generate", "model sampling passes the loaded phase asked for (windows for extends)"),
    layer("cp_diffusion.modify_ms", "ms", "lower", TCP, "op_ms_p95@serve_tcp_mixed", "RePaint modify of the central half region"),
    layer("cp_extend.out_4x_ms", "ms", "lower", "free_size_extend", "op_ms_p50@free_size_extend", "cp_extend::extend, Out-Painting to 4x"),
    layer("cp_extend.in_4x_ms", "ms", "lower", "free_size_extend", "op_ms_p50@free_size_extend", "cp_extend::extend, In-Painting to 4x"),
    layer("cp_extend.out_2x_ms", "ms", "lower", "free_size_extend", "ops_per_s@free_size_extend", "cp_extend::extend, Out-Painting to 2x"),
    layer("cp_extend.in_2x_ms", "ms", "lower", "free_size_extend", "ops_per_s@free_size_extend", "cp_extend::extend, In-Painting to 2x"),
    layer("cp_extend.windows_4x", "count", "lower", "free_size_extend", "op_ms_p50@free_size_extend", "model calls of one 4x Out- plus one 4x In-Painting (paper N_out + N_in)"),
    layer("cp_extend.self_ms", "ms", "lower", "free_size_extend", "op_ms_p50@free_size_extend", "4x Out-Painting time minus its windows x sample_ms: scheduling, masks, stitching"),
    layer("cp_legalize.fixed_ms", "ms", "lower", "fixed_generate, chat_sessions, serve_tcp_mixed, router_tcp_mixed", "ops_per_s@fixed_generate (small), op_ms_p50@serve_tcp_mixed", "Legalizer::legalize of a window-sized topology"),
    layer("cp_legalize.x4_ms", "ms", "lower", "free_size_extend", "ops_per_s@free_size_extend", "Legalizer::legalize of a 4x (16x cells) topology"),
    layer("cp_legalize.fail_share", "share", "lower", "fixed_generate, free_size_extend", "legality_rate", "legalize failures over attempts in the traced pass"),
    layer("cp_squish.encode_ms", "ms", "lower", "fixed_generate, free_size_extend", "ops_per_s@free_size_extend, ops_per_s@fixed_generate", "SquishPattern::from_layout of the workload's largest layout"),
    layer("cp_squish.minimize_ms", "ms", "lower", "fixed_generate, free_size_extend", "ops_per_s@free_size_extend", "SquishPattern::minimized of the same pattern"),
    layer("cp_drc.check_ms", "ms", "lower", "fixed_generate, free_size_extend", "ops_per_s@fixed_generate", "check_pattern of the same pattern"),
    layer("cp_metrics.evaluate_ms", "ms", "lower", "fixed_generate", "ops_per_s@fixed_generate", "legality + diversity of a library, scaled to 100 topologies"),
    layer("cp_agent.auto_format_us", "us", "lower", "chat_sessions", "op_ms_p50@chat_sessions", "requirement parsing, per utterance of the corpus"),
    layer("cp_agent.tool_calls_per_turn", "count", "lower", "chat_sessions", "op_ms_p50@chat_sessions", "mean tool calls per turn"),
    layer("cp_agent.turn_self_ms", "ms", "lower", "chat_sessions", "op_ms_p50@chat_sessions", "in-memory turn minus its patterns x (sample_ms + legalize fixed_ms)"),
    layer("core.session.turn_mem_ms", "ms", "lower", "chat_sessions", "op_ms_p50@chat_sessions", "session_turn with no persist layer"),
    layer("core.session.spill_ms", "ms", "lower", "chat_sessions", "op_ms_p95@chat_sessions then op_ms_p50", "JsonDirPersist write of an 8-turn snapshot"),
    layer("core.session.rehydrate_ms", "ms", "lower", "chat_sessions", "op_ms_p95@chat_sessions", "JsonDirPersist read of the same snapshot"),
    layer("core.session.spill_ahead_ms", "ms", "lower", "chat_sessions", "op_ms_p50@chat_sessions", "a turn with directory persist and spill-ahead after every turn minus the same turn in memory, both through the engine"),
    layer("core.session.snapshot_kb", "kB", "lower", "chat_sessions", "op_ms_p95@chat_sessions", "serialized size of that snapshot"),
    layer("core.session.spilled", "count", "lower", "chat_sessions", "op_ms_p95@chat_sessions", "session_stats().spilled after the loaded phase"),
    layer("core.session.restored", "count", "lower", "chat_sessions", "op_ms_p95@chat_sessions", "session_stats().restored after the loaded phase"),
    layer("core.session.spilled_ahead", "count", "lower", "chat_sessions", "op_ms_p50@chat_sessions", "session_stats().spilled_ahead after the loaded phase"),
    layer("core.service.self_us", "us", "lower", ALL, "op_ms_p50@serve_tcp_mixed", "ChatPattern::execute minus the direct layer call"),
    layer("core.engine.self_us", "us", "lower", ALL, "op_ms_p50@serve_tcp_mixed, ops_per_s@fixed_generate via queue hand-off", "submit().wait() minus inline execute, one job at a time"),
    layer("core.engine.cache_hit_us", "us", "lower", "fixed_generate, serve_tcp_mixed, router_tcp_mixed", "op_ms_p50@serve_tcp_mixed", "submit().wait() of an already cached Generate"),
    layer("core.engine.queue_ms_p50", "ms", "lower", ALL, "op_ms_p95@serve_tcp_mixed", "median reply Timing.queue_micros under load"),
    layer("core.engine.exec_ms_p50", "ms", "lower", ALL, "op_ms_p50", "median reply Timing.exec_micros under load"),
    layer("core.engine.cache_hit_share", "share", "higher", ALL, "ops_per_s@serve_tcp_mixed", "cache_hits over cache_hits + cache_misses (engine stats) after the loaded phase"),
    layer("core.engine.coalesced", "count", "higher", ALL, "ops_per_s@serve_tcp_mixed", "requests coalesced onto an in-flight twin (engine stats)"),
    layer("cp_qos.admit_release_ns", "ns", "lower", TCP, "ops_per_s@serve_tcp_mixed", "QosGate::try_admit + release"),
    layer("cp_qos.push_pop_ns", "ns", "lower", TCP, "ops_per_s@serve_tcp_mixed", "FairQueue push + pop"),
    layer("core.wire.decode_us", "us", "lower", TCP, "op_ms_p50@serve_tcp_mixed, twice @router_tcp_mixed", "decode_request_line of a Legalize line"),
    layer("core.wire.encode_us", "us", "lower", TCP, "op_ms_p50@serve_tcp_mixed, twice @router_tcp_mixed", "ResponseEnvelope::to_line of a Legalize reply"),
    layer("core.wire.req_kb", "kB", "lower", TCP, "op_ms_p50@serve_tcp_mixed", "mean request line size in the loaded phase"),
    layer("core.wire.reply_kb", "kB", "lower", TCP, "op_ms_p50@serve_tcp_mixed", "mean reply line size in the loaded phase"),
    layer("core.wire.self_us", "us", "lower", TCP, "op_ms_p50@serve_tcp_mixed", "in-process encode/decode round trip minus the bare engine call"),
    layer("cp_net.stats_rtt_us", "us", "lower", TCP, "op_ms_p50@serve_tcp_mixed", "TCP round trip of Stats to serve: the transport floor"),
    layer("cp_net.cached_rtt_us", "us", "lower", TCP, "op_ms_p50@serve_tcp_mixed", "TCP round trip of a cached Generate to serve"),
    layer("cp_net.self_us", "us", "lower", TCP, "op_ms_p50@serve_tcp_mixed", "Legalize over TCP to serve minus the in-process wire round trip"),
    layer("serve.outside_engine_ms", "ms", "lower", TCP, "op_ms_p50@serve_tcp_mixed", "median client latency minus reply Timing.micros under load"),
    layer("serve.req_ms_p99", "ms", "lower", "serve_tcp_mixed", "op_ms_p95@serve_tcp_mixed", "99th-percentile request latency under load"),
    layer("serve.threads_peak", "count", "lower", TCP, "op_ms_p95@serve_tcp_mixed", "most threads seen in the server processes under load"),
    layer("router.hop_ms", "ms", "lower", "router_tcp_mixed", "op_ms_p50@router_tcp_mixed", "Legalize through the router minus the same request straight to serve"),
    layer("router.stats_rtt_us", "us", "lower", "router_tcp_mixed", "op_ms_p50@router_tcp_mixed", "TCP round trip of Stats through the router (fleet fan-in)"),
    layer("router.shard_skew", "ratio", "lower", "router_tcp_mixed", "op_ms_p95@router_tcp_mixed", "max over mean of per-worker completed requests"),
    layer("router.req_ms_p99", "ms", "lower", "router_tcp_mixed", "op_ms_p95@router_tcp_mixed", "99th-percentile request latency under load"),
    layer("trace.blocking_path_ms", "ms", "lower", ALL, "op_ms_p50", "sum of the self times along the traced operation's blocking path"),
    layer("trace.unattributed_share", "share", "lower", ALL, "op_ms_p50", "share of the loaded op_ms_p50 the one-at-a-time blocking path does not explain: queueing and contention"),
    layer("trace.loaded_ops_per_s", "1/s", "higher", ALL, "ops_per_s", "ops_per_s of the traced loaded phase; against the untraced run it gives trace_overhead_share"),
    layer("trace.spans", "count", "lower", ALL, "none", "spans written to benchmark/out/<workload>.trace.json"),
    layer("host.slowdown", "ratio", "lower", ALL, "none: it is divided out of every end-to-end timing", "median over the rounds of the calibration kernel's time over its nominal time; 1 = the host ran at nominal speed"),
    layer("host.raw_ops_per_s", "1/s", "higher", ALL, "ops_per_s", "validated operations over the summed slice intervals, as the clock read them, before the division by the slowdown"),
];

pub const RUN_SECONDS: u64 = 20;

fn json_string(text: &str) -> String {
    format!("\"{}\"", text.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `BENCHMARK.json`, exactly the six keys of the driver's contract.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name),
                json_string(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// The metric catalogue as Markdown tables (pasted into README.md).
pub fn catalogue_markdown() -> String {
    let mut out = String::from(
        "| end-to-end metric | unit | better | bound | what |\n|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name, m.unit, m.better, m.bound, m.what
        ));
    }
    out.push_str(
        "\n| per-layer metric | unit | measured on | predicted to move | what |\n|---|---|---|---|---|\n",
    );
    for m in &PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name, m.unit, m.on, m.moves, m.what
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let units = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in units {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name}: {unit}"
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
        assert!(manifest().len() < 64 * 1024);
    }

    #[test]
    fn committed_manifest_and_readme_are_what_the_tables_print() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with `benchmark/run.sh --print-manifest > BENCHMARK.json`"
        );
        assert!(
            include_str!("../README.md").contains(&catalogue_markdown()),
            "paste `benchmark/run.sh --print-catalogue` into README.md"
        );
    }
}
