#include "tools/commands.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <ostream>

#include "approx/driver.hpp"
#include "baselines/brandes.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/prng.hpp"
#include "common/table.hpp"
#include "core/autotune.hpp"
#include "core/footprint.hpp"
#include "core/turbobc.hpp"
#include "core/turbobc_batched.hpp"
#include "core/turbobfs.hpp"
#include "dist/dist_turbobc.hpp"
#include "generators/generators.hpp"
#include "gpusim/device.hpp"
#include "gpusim/executor.hpp"
#include "gpusim/topology.hpp"
#include "gpusim/trace.hpp"
#include "graph/bfs_probe.hpp"
#include "graph/mtx_io.hpp"
#include "graph/stats.hpp"
#include "hybrid/hybrid_bc.hpp"
#include "daemon/client.hpp"
#include "daemon/server.hpp"
#include "serve/session.hpp"
#include "storage/mtx_stream.hpp"
#include "storage/streaming_bc.hpp"

namespace turbobc::tools {

namespace {

graph::EdgeList load_graph(const CliArgs& args, std::size_t positional_index) {
  TBC_CHECK(args.positional().size() > positional_index,
            "missing graph file argument");
  return graph::read_matrix_market_file(args.positional()[positional_index]);
}

/// --compress ingests through the chunked out-of-core loader instead of the
/// whole-file reader; the compressed image is kept for the streaming engine
/// and inflated for everything that takes an EdgeList. Returns the edge
/// list; `cgraph` receives the compressed image only under --compress.
graph::EdgeList load_graph_maybe_compressed(
    const CliArgs& args, std::size_t positional_index,
    std::optional<storage::CompressedCsc>& cgraph) {
  if (!args.has("compress")) return load_graph(args, positional_index);
  TBC_CHECK(args.positional().size() > positional_index,
            "missing graph file argument");
  cgraph = storage::read_matrix_market_compressed_file(
      args.positional()[positional_index]);
  return storage::to_edge_list(*cgraph);
}

bc::Variant parse_variant(const CliArgs& args, const graph::EdgeList& g) {
  const std::string v = args.get("variant", "auto");
  if (v == "sccooc") return bc::Variant::kScCooc;
  if (v == "sccsc") return bc::Variant::kScCsc;
  if (v == "vecsc") return bc::Variant::kVeCsc;
  if (v == "autotune") {
    return bc::autotune_variant(g, 0).best;
  }
  if (v != "auto") {
    throw UsageError("unknown variant '" + v +
                     "' (expected auto|autotune|sccooc|sccsc|vecsc)");
  }
  return bc::select_variant(g);
}

bc::Advance parse_advance(const CliArgs& args) {
  const std::string a = args.get("advance", "push");
  if (a == "push") return bc::Advance::kPush;
  if (a == "pull") return bc::Advance::kPull;
  if (a == "auto") return bc::Advance::kAuto;
  throw UsageError("unknown --advance '" + a + "' (expected push|pull|auto)");
}

/// --source, checked against the loaded graph: an out-of-range vertex is
/// misuse (exit 2), not an engine check failure.
vidx_t parse_source(const CliArgs& args, const graph::EdgeList& g) {
  const std::int64_t s = args.get_int("source", 0);
  if (s < 0 || s >= g.num_vertices()) {
    throw UsageError("--source must be a vertex in [0, " +
                     std::to_string(g.num_vertices()) + "), got " +
                     std::to_string(s));
  }
  return static_cast<vidx_t>(s);
}

/// --batch: one MS-BFS block packs one source per bit of a 64-bit mask.
vidx_t parse_batch(const CliArgs& args) {
  const std::int64_t k = args.get_count("batch", 8);
  if (k > 64) {
    throw UsageError("--batch must be in [1, 64] (one source per mask bit), "
                     "got " + std::to_string(k));
  }
  return static_cast<vidx_t>(k);
}

std::vector<vidx_t> top_order(const std::vector<bc_t>& bc, int k) {
  std::vector<vidx_t> order(bc.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](vidx_t a, vidx_t b) {
    return bc[static_cast<std::size_t>(a)] > bc[static_cast<std::size_t>(b)];
  });
  order.resize(std::min<std::size_t>(order.size(),
                                     static_cast<std::size_t>(std::max(k, 0))));
  return order;
}

void print_top_vertices(std::ostream& out, const std::vector<bc_t>& bc,
                        int k) {
  Table t({"rank", "vertex", "bc"});
  int rank = 0;
  for (const vidx_t v : top_order(bc, k)) {
    t.add_row({std::to_string(++rank), std::to_string(v),
               fixed(bc[static_cast<std::size_t>(v)], 3)});
  }
  t.print(out);
}

/// --devices / --nvlink into a modeled node description.
sim::TopologyProps topology_props(const CliArgs& args, int default_devices) {
  sim::TopologyProps props;
  props.num_devices =
      static_cast<int>(args.get_count("devices", default_devices));
  props.nvlink = args.has("nvlink");
  return props;
}

/// The same without-replacement uniform draw as TurboBC::run_approximate, so
/// `bc --approx K --devices D` estimates from the identical pivot set (and
/// hence, replicated, the identical scaled BC values) as one device.
std::vector<vidx_t> sample_uniform_sources(vidx_t n, vidx_t k,
                                           std::uint64_t seed) {
  TBC_CHECK(k > 0, "need at least one sampled source");
  k = std::min(k, n);
  Xoshiro256 rng(seed);
  std::vector<char> chosen(static_cast<std::size_t>(n), 0);
  std::vector<vidx_t> sources;
  sources.reserve(static_cast<std::size_t>(k));
  while (static_cast<vidx_t>(sources.size()) < k) {
    const auto v =
        static_cast<vidx_t>(rng.uniform(static_cast<std::uint64_t>(n)));
    if (!chosen[static_cast<std::size_t>(v)]) {
      chosen[static_cast<std::size_t>(v)] = 1;
      sources.push_back(v);
    }
  }
  return sources;
}

}  // namespace

std::string cli_usage() {
  return
      "turbobc_cli — linear-algebraic betweenness centrality toolkit\n"
      "\n"
      "usage:\n"
      "  turbobc_cli info [--devices 4] [--nvlink] [--json]\n"
      "      modeled hardware: per-device resources (SMs, clock, memory,\n"
      "      bandwidth) and the interconnect cost model behind --devices\n"
      "  turbobc_cli generate --family F --out g.mtx [family options]\n"
      "      families: mycielski (--order), kronecker (--scale\n"
      "      --edge-factor), smallworld (--n --k --p), grid (--rows --cols),\n"
      "      road (--rows --cols --subdiv), erdos-renyi (--n --arcs\n"
      "      [--undirected]), preferential (--n --m-attach [--directed]);\n"
      "      all accept --seed\n"
      "  turbobc_cli stats g.mtx [--json]\n"
      "  turbobc_cli bfs g.mtx [--source 0] [--variant auto]\n"
      "      [--advance push|pull|auto] [--compress]\n"
      "  turbobc_cli bc g.mtx [--source S | --exact [--batch K] | --approx K]\n"
      "      [--variant auto|autotune|sccooc|sccsc|vecsc] [--edge-bc]\n"
      "      [--advance push|pull|auto] [--top 10] [--verify] [--json]\n"
      "      [--trace out.json]\n"
      "      [--devices K] [--dist auto|replicate|partition] [--nvlink]\n"
      "      [--compress] [--stream-window W [--stream-shards K]]\n"
      "      [--hybrid]\n"
      "      --advance picks the forward sweep: 'push' expands the frontier\n"
      "      (the paper's SpMV), 'pull' has undiscovered columns probe a\n"
      "      frontier bitmap, 'auto' switches per level by the Beamer\n"
      "      alpha/beta rule at 7n + m + ceil(n/32) words; every mode's\n"
      "      modeled results are bit-identical to push\n"
      "      --devices > 1 scales out over a modeled multi-GPU node:\n"
      "      'replicate' fans source blocks across whole-graph replicas,\n"
      "      'partition' shards CSC column blocks so graphs past one\n"
      "      device's memory wall still run; 'auto' picks by footprint\n"
      "      --hybrid (with --exact) co-executes the 64-source blocks on\n"
      "      the host CPU model AND --devices K modeled GPUs from one work\n"
      "      queue — heavy blocks go to the devices, the tail backfills the\n"
      "      host — reporting the co-execution makespan and per-processor\n"
      "      utilization; BC stays bit-identical to the single-device run\n"
      "      --batch with --dist partition packs each source block into\n"
      "      per-vertex 64-bit masks (MS-BFS) so one mask word per vertex\n"
      "      per level crosses the interconnect for all lanes (push only)\n"
      "      --compress ingests the file through the chunked out-of-core\n"
      "      loader and keeps the graph as a delta-varint compressed CSC,\n"
      "      decoded inside the kernels; results stay bit-identical.\n"
      "      --stream-window W additionally leaves the compressed column\n"
      "      shards (--stream-shards, default 4) on the host and keeps only\n"
      "      W device-resident, fetching over the modeled PCIe link — how a\n"
      "      graph past one device's memory still completes (push only)\n"
      "  turbobc_cli approx g.mtx [--epsilon 0.05] [--delta 0.1] [--topk K]\n"
      "      [--seed 1] [--sampler uniform|degree|component]\n"
      "      [--engine scalar|batched] [--batch 8] [--max-sources N]\n"
      "      [--variant auto|autotune|sccooc|sccsc|vecsc]\n"
      "      [--advance push|pull|auto] [--top 10] [--json]\n"
      "      [--devices K] [--nvlink]\n"
      "      adaptive sampling until every vertex's confidence half-width\n"
      "      (or, with --topk, the top-k ranking) meets the target; same\n"
      "      seed => bit-identical output at every --threads\n"
      "  turbobc_cli serve g.mtx [--script session.txt] [--json] [--top 5]\n"
      "      [--variant auto|autotune|sccooc|sccsc|vecsc]\n"
      "      [--advance push|pull|auto]\n"
      "      [--sampler uniform|degree|component] [--seed 1]\n"
      "      dynamic-graph serving session: one command per line from\n"
      "      --script (or stdin) — 'bc [K]', 'top K', 'approx EPS [DELTA]',\n"
      "      'insert U V', 'delete U V', 'stats'; '#' starts a comment.\n"
      "      Edge updates invalidate only the sources whose BFS cone the\n"
      "      edge touches; queries recompute just those, and full-BC\n"
      "      answers stay bit-identical to `bc --exact` on the mutated\n"
      "      graph at every --threads\n"
      "      --wire switches to the daemon wire schema: every event is\n"
      "      stamped with the graph epoch and 'bc' carries a 64-bit FNV-1a\n"
      "      digest of the full BC vector's raw bytes; a daemon connection\n"
      "      replaying the same script produces the identical transcript\n"
      "  turbobc_cli daemon g.mtx --listen HOST:PORT|unix:PATH [--json]\n"
      "      [--top 5] [--queue-limit 8] [--readers 1] [--max-line 4096]\n"
      "      [--variant ...] [--advance ...] [--sampler ...] [--seed 1]\n"
      "      socket front-end for the serve session language, newline-\n"
      "      delimited, one thread per connection: queries (bc/top/approx/\n"
      "      stats) run concurrently under a shared lock, insert/delete\n"
      "      serialize under an exclusive lock with a bounded admission\n"
      "      queue (over-limit updates get an explicit 'busy' response);\n"
      "      every response is epoch-stamped (--wire schema). Extra wire\n"
      "      commands: 'metrics' (live counters: latency quantiles, cache\n"
      "      hit ratio, queue depth, modeled reader-lane clock) and\n"
      "      'shutdown' (graceful drain). --listen HOST:0 binds an\n"
      "      ephemeral port and prints it on the 'listening' line\n"
      "  turbobc_cli client --connect HOST:PORT|unix:PATH [--script f]\n"
      "      loopback client: stream commands from --script (or stdin) to\n"
      "      a daemon and copy responses to stdout until the server closes\n"
      "\n"
      "global options:\n"
      "  --threads N   host threads simulating the device (default: hardware\n"
      "                concurrency; 1 = serial). Modeled results are\n"
      "                bit-identical for every N.\n";
}

int cmd_info(const CliArgs& args, std::ostream& out, std::ostream& /*err*/) {
  const sim::TopologyProps props = topology_props(args, 4);
  const sim::DeviceProps& d = props.device;
  const sim::LinkProps& link = props.active_link();

  if (args.has("json")) {
    out << "{\n"
        << "  \"devices\": " << props.num_devices << ",\n"
        << "  \"device\": {\n"
        << "    \"name\": \"" << d.name << "\",\n"
        << "    \"sm_count\": " << d.sm_count << ",\n"
        << "    \"cores_per_sm\": " << d.cores_per_sm << ",\n"
        << "    \"issue_slots_per_sm\": " << d.issue_slots_per_sm << ",\n"
        << "    \"clock_ghz\": " << fixed(d.clock_hz / 1e9, 2) << ",\n"
        << "    \"global_mem_bytes\": " << d.global_mem_bytes << ",\n"
        << "    \"dram_bandwidth_gbps\": " << fixed(d.dram_bandwidth_bps / 1e9, 1)
        << ",\n"
        << "    \"peak_glt_gbps\": " << fixed(d.theoretical_glt_bps / 1e9, 1)
        << "\n"
        << "  },\n"
        << "  \"interconnect\": {\n"
        << "    \"name\": \"" << props.interconnect_name() << "\",\n"
        << "    \"bandwidth_gbps\": " << fixed(link.bandwidth_bps / 1e9, 1)
        << ",\n"
        << "    \"latency_us\": " << fixed(link.latency_s * 1e6, 1) << ",\n"
        << "    \"default_algo\": \""
        << sim::to_string(props.default_algo()) << "\"\n"
        << "  }\n"
        << "}\n";
    return 0;
  }

  Table t({"property", "value"});
  t.add_row({"device", d.name});
  t.add_row({"modeled devices", std::to_string(props.num_devices)});
  t.add_row({"SMs x cores/SM", std::to_string(d.sm_count) + " x " +
                                   std::to_string(d.cores_per_sm)});
  t.add_row({"issue slots / SM", std::to_string(d.issue_slots_per_sm)});
  t.add_row({"clock", fixed(d.clock_hz / 1e9, 2) + " GHz"});
  t.add_row({"global memory", human_bytes(d.global_mem_bytes)});
  t.add_row({"DRAM bandwidth", fixed(d.dram_bandwidth_bps / 1e9, 1) + " GB/s"});
  t.add_row({"peak GLT", fixed(d.theoretical_glt_bps / 1e9, 1) + " GB/s"});
  t.add_row({"interconnect", props.interconnect_name()});
  t.add_row({"link bandwidth", fixed(link.bandwidth_bps / 1e9, 1) + " GB/s"});
  t.add_row({"link latency", fixed(link.latency_s * 1e6, 1) + " us"});
  t.add_row({"collective schedule",
             std::string(sim::to_string(props.default_algo()))});
  t.print(out);
  return 0;
}

int cmd_generate(const CliArgs& args, std::ostream& out, std::ostream& err) {
  const std::string family = args.get("family", "");
  const std::string path = args.get("out", "");
  if (family.empty() || path.empty()) {
    err << "generate: --family and --out are required\n" << cli_usage();
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  graph::EdgeList g(0, true);
  if (family == "mycielski") {
    g = gen::mycielski(static_cast<int>(args.get_int("order", 10)));
  } else if (family == "kronecker") {
    g = gen::kronecker({.scale = static_cast<int>(args.get_int("scale", 12)),
                        .edge_factor =
                            args.get_double("edge-factor", 16.0),
                        .seed = seed});
  } else if (family == "smallworld") {
    g = gen::small_world({.n = static_cast<vidx_t>(args.get_int("n", 10000)),
                          .k = static_cast<int>(args.get_int("k", 10)),
                          .rewire_p = args.get_double("p", 0.1),
                          .seed = seed});
  } else if (family == "grid") {
    g = gen::triangulated_grid(
        static_cast<vidx_t>(args.get_int("rows", 100)),
        static_cast<vidx_t>(args.get_int("cols", 100)));
  } else if (family == "road") {
    g = gen::road_network(
        {.grid_rows = static_cast<vidx_t>(args.get_int("rows", 10)),
         .grid_cols = static_cast<vidx_t>(args.get_int("cols", 10)),
         .keep_p = args.get_double("keep", 0.7),
         .subdivisions = static_cast<int>(args.get_int("subdiv", 10)),
         .seed = seed});
  } else if (family == "erdos-renyi") {
    g = gen::erdos_renyi({.n = static_cast<vidx_t>(args.get_int("n", 1000)),
                          .arcs = args.get_int("arcs", 5000),
                          .directed = !args.has("undirected"),
                          .seed = seed});
  } else if (family == "preferential") {
    g = gen::preferential_attachment(
        {.n = static_cast<vidx_t>(args.get_int("n", 10000)),
         .m_attach = static_cast<int>(args.get_int("m-attach", 2)),
         .directed = args.has("directed"),
         .seed = seed});
  } else {
    err << "generate: unknown family '" << family << "'\n" << cli_usage();
    return 2;
  }

  graph::write_matrix_market_file(path, g);
  out << "wrote " << path << ": n = " << g.num_vertices()
      << ", arcs = " << g.num_arcs()
      << (g.directed() ? " (directed)" : " (undirected)") << '\n';
  return 0;
}

int cmd_stats(const CliArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional().size() < 2) {
    err << "stats: missing graph file\n" << cli_usage();
    return 2;
  }
  const auto g = load_graph(args, 1);
  const auto deg = graph::degree_stats(g);
  const double scf = graph::scf_index(g);
  const auto probe = graph::bfs_reference(
      graph::CscGraph::from_edges(g), 0);

  if (args.has("json")) {
    out << "{\n"
        << "  \"vertices\": " << g.num_vertices() << ",\n"
        << "  \"arcs\": " << g.num_arcs() << ",\n"
        << "  \"directed\": " << (g.directed() ? "true" : "false") << ",\n"
        << "  \"degree\": {\"max\": " << deg.max << ", \"mean\": "
        << fixed(deg.mean, 4) << ", \"stddev\": " << fixed(deg.stddev, 4)
        << "},\n"
        << "  \"scf_index\": " << fixed(scf, 4) << ",\n"
        << "  \"irregular\": " << (graph::is_irregular(g) ? "true" : "false")
        << ",\n"
        << "  \"suggested_variant\": \""
        << bc::to_string(bc::select_variant(g)) << "\",\n"
        << "  \"bfs_height\": " << probe.height << ",\n"
        << "  \"bfs_reached\": " << probe.reached << ",\n"
        << "  \"model_bytes\": "
        << bc::turbobc_model_bytes(g.num_vertices(), g.num_arcs()) << "\n"
        << "}\n";
    return 0;
  }

  Table t({"property", "value"});
  t.add_row({"vertices", human_count(static_cast<double>(g.num_vertices()))});
  t.add_row({"arcs", human_count(static_cast<double>(g.num_arcs()))});
  t.add_row({"directed", g.directed() ? "yes" : "no"});
  t.add_row({"degree max/mean/std",
             human_count(static_cast<double>(deg.max)) + " / " +
                 fixed(deg.mean, 2) + " / " + fixed(deg.stddev, 2)});
  t.add_row({"scf index", fixed(scf, 1)});
  t.add_row({"class", graph::is_irregular(g) ? "irregular" : "regular"});
  t.add_row({"suggested variant",
             std::string(bc::to_string(bc::select_variant(g)))});
  t.add_row({"BFS depth from 0", std::to_string(probe.height)});
  t.add_row({"reached from 0", std::to_string(probe.reached)});
  t.add_row({"TurboBC footprint (7n+m)",
             human_bytes(bc::turbobc_model_bytes(g.num_vertices(),
                                                 g.num_arcs()))});
  t.print(out);
  return 0;
}

int cmd_bfs(const CliArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional().size() < 2) {
    err << "bfs: missing graph file\n" << cli_usage();
    return 2;
  }
  std::optional<storage::CompressedCsc> cgraph;
  const auto g = load_graph_maybe_compressed(args, 1, cgraph);
  const vidx_t source = parse_source(args, g);
  const bc::Variant variant = parse_variant(args, g);
  const bc::Advance advance = parse_advance(args);

  sim::Device device;
  bc::TurboBfs bfs(device, g, variant, advance, {}, args.has("compress"));
  const auto r = bfs.run(source);

  out << "BFS from " << source << " ("
      << (args.has("compress") ? "compressed " : "")
      << bc::to_string(bfs.variant())
      << (advance != bc::Advance::kPush
              ? "/" + std::string(bc::to_string(advance))
              : "")
      << "): reached " << r.reached << "/" << g.num_vertices()
      << ", tree height " << r.height << ", modeled "
      << fixed(r.device_seconds * 1e3, 3) << " ms\n";

  // Depth histogram.
  std::vector<vidx_t> counts(static_cast<std::size_t>(r.height) + 1, 0);
  for (const vidx_t d : r.depth) {
    if (d >= 0) ++counts[static_cast<std::size_t>(d)];
  }
  Table t({"depth", "vertices"});
  for (std::size_t d = 0; d < counts.size(); ++d) {
    t.add_row({std::to_string(d), std::to_string(counts[d])});
  }
  t.print(out);
  return 0;
}

int cmd_bc(const CliArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional().size() < 2) {
    err << "bc: missing graph file\n" << cli_usage();
    return 2;
  }
  std::optional<storage::CompressedCsc> cgraph;
  const auto g = load_graph_maybe_compressed(args, 1, cgraph);
  bc::Variant variant = parse_variant(args, g);
  const bc::Advance advance = parse_advance(args);
  const bool single_source = !args.has("exact") && !args.has("approx");
  const vidx_t source = single_source ? parse_source(args, g) : 0;
  const vidx_t batch = args.has("batch") ? parse_batch(args) : 0;

  const auto devices = static_cast<int>(args.get_count("devices", 1));
  const bool hybrid_mode = args.has("hybrid");
  // --hybrid reinterprets --devices as its modeled GPU worker count, so it
  // never routes through the dist engine.
  const bool use_dist = !hybrid_mode && (devices > 1 || args.has("dist"));
  const bool want_trace = args.has("trace");
  const bool compress = args.has("compress");
  const bool streaming = args.has("stream-window");
  if (hybrid_mode) {
    if (!args.has("exact")) {
      throw UsageError("--hybrid needs --exact (co-execution splits the "
                       "all-sources block queue)");
    }
    if (args.has("dist")) {
      throw UsageError("--hybrid schedules its own devices (drop --dist; "
                       "--devices K sets the hybrid GPU worker count)");
    }
    if (args.has("edge-bc")) {
      throw UsageError("--hybrid does not support --edge-bc (the host path "
                       "accumulates vertex BC only)");
    }
    if (compress || streaming) {
      throw UsageError("--hybrid runs on the uncompressed resident graph "
                       "(drop --compress/--stream-window)");
    }
    if (args.has("batch")) {
      throw UsageError("--hybrid does not support --batch (blocks are the "
                       "scheduling unit already)");
    }
    if (advance != bc::Advance::kPush) {
      throw UsageError("--hybrid is push-only (the host path mirrors the "
                       "push sweep's arithmetic)");
    }
    if (want_trace) {
      throw UsageError("--trace is single-engine only (drop --hybrid)");
    }
  }
  if (compress && args.has("edge-bc")) {
    throw UsageError(
        "--compress does not support --edge-bc (the edge accumulator indexes "
        "arcs by raw nonzero position)");
  }
  if (args.has("exact") && batch > 0 && args.has("edge-bc")) {
    throw UsageError(
        "--batch does not support --edge-bc (the MS-BFS sweep accumulates "
        "vertex BC only)");
  }
  if (compress && use_dist) {
    throw UsageError(
        "--compress is single-device (use --stream-window for graphs past "
        "one device's memory)");
  }
  if (streaming && !compress) {
    throw UsageError("--stream-window needs --compress");
  }
  if (streaming && advance != bc::Advance::kPush) {
    throw UsageError(
        "--stream-window is push-only (a direction-optimized sweep would "
        "re-fetch the shard window per level)");
  }
  if (streaming && args.has("batch")) {
    throw UsageError("--stream-window does not support --batch");
  }

  // Streamed out-of-core run: the compressed column shards stay on the host
  // and only --stream-window of them are device-resident at a time.
  std::optional<storage::StreamingLedger> sledger;
  int stream_shards = 0;
  bool stream_fetch_free = false;

  bc::BcResult r;
  std::string mode;
  std::optional<dist::DistResult> dres;  // multi-GPU extras for reporting
  std::optional<hybrid::HybridResult> hres;  // co-execution extras
  dist::Strategy strategy_used = dist::Strategy::kReplicate;
  std::unique_ptr<sim::Device> device;  // single-device path; kept for --trace
  if (hybrid_mode) {
    device = std::make_unique<sim::Device>();
    device->set_keep_launch_records(false);
    hybrid::HybridTurboBC engine(*device, g, {.variant = variant},
                                 {.devices = devices});
    variant = engine.options().variant;  // pinned to sccsc
    hres = engine.run_exact();
    r = std::move(hres->result);
    mode = "exact, hybrid";
  } else if (use_dist) {
    const auto strategy = dist::parse_strategy(args.get("dist", "auto"));
    if (!strategy) {
      throw UsageError("unknown --dist '" + args.get("dist", "auto") +
                       "' (expected auto|replicate|partition)");
    }
    if (args.has("batch") && *strategy != dist::Strategy::kPartition) {
      throw UsageError(
          "--batch with --devices needs --dist partition (replicated blocks "
          "already ride the single-device engine)");
    }
    if (args.has("batch") && advance != bc::Advance::kPush) {
      throw UsageError(
          "--dist partition --batch is push-only (masks are exchanged, not "
          "bitmaps)");
    }
    if (want_trace) {
      throw UsageError("--trace is single-device only (drop --devices)");
    }
    if (args.has("edge-bc") && *strategy == dist::Strategy::kPartition) {
      throw UsageError(
          "--edge-bc needs the replicated strategy (column shards do not own "
          "whole arcs)");
    }
    sim::Topology topo(topology_props(args, devices));
    dist::DistTurboBC engine(topo, g,
                             {.strategy = *strategy,
                              .variant = variant,
                              .edge_bc = args.has("edge-bc"),
                              .advance = advance,
                              .batch_size = batch});
    strategy_used = engine.strategy();
    // Report what runs: batched shards are pinned to the scCSC MS-BFS
    // kernels; otherwise the engine's demotion rule applies.
    variant = batch > 0
                  ? bc::Variant::kScCsc
                  : bc::effective_variant(variant, advance, /*compress=*/false);
    const std::string batch_tag =
        batch > 0 ? ", batched x" + std::to_string(batch) : "";
    if (args.has("exact")) {
      dres = engine.run_exact();
      mode = "exact" + batch_tag;
    } else if (args.has("approx")) {
      const auto sources = sample_uniform_sources(
          g.num_vertices(), static_cast<vidx_t>(args.get_count("approx", 32)),
          static_cast<std::uint64_t>(args.get_int("seed", 1)));
      dres = engine.run_sources(sources);
      const bc_t scale = static_cast<bc_t>(g.num_vertices()) /
                         static_cast<bc_t>(sources.size());
      for (bc_t& v : dres->bc) v *= scale;
      for (bc_t& v : dres->edge_bc) v *= scale;
      mode = "approximate (" + std::to_string(dres->sources) + " sources)" +
             batch_tag;
    } else {
      dres = engine.run_single_source(source);
      mode = "single-source" + batch_tag;
    }
    r.bc = dres->bc;
    r.edge_bc = dres->edge_bc;
    r.sources = dres->sources;
    r.device_seconds = dres->device_seconds;
    r.peak_device_bytes = dres->max_peak_bytes;
  } else if (streaming) {
    device = std::make_unique<sim::Device>();
    device->set_keep_launch_records(want_trace);
    storage::StreamingTurboBC streng(
        *device, *cgraph,
        {.num_shards = static_cast<int>(args.get_count("stream-shards", 4)),
         .window = static_cast<int>(args.get_count("stream-window", 2))});
    if (args.has("exact")) {
      r = streng.run_exact();
      mode = "exact, streamed";
    } else if (args.has("approx")) {
      const auto sources = sample_uniform_sources(
          g.num_vertices(), static_cast<vidx_t>(args.get_count("approx", 32)),
          static_cast<std::uint64_t>(args.get_int("seed", 1)));
      r = streng.run_sources(sources);
      const bc_t scale = static_cast<bc_t>(g.num_vertices()) /
                         static_cast<bc_t>(sources.size());
      for (bc_t& v : r.bc) v *= scale;
      mode = "approximate (" + std::to_string(r.sources) +
             " sources), streamed";
    } else {
      r = streng.run_single_source(source);
      mode = "single-source, streamed";
    }
    variant = bc::effective_variant(variant, advance, /*compress=*/true);
    sledger = streng.ledger();
    stream_shards = streng.num_shards();
    stream_fetch_free = streng.fetch_free();
  } else {
    device = std::make_unique<sim::Device>();
    device->set_keep_launch_records(want_trace);
    if (args.has("exact") && args.has("batch")) {
      // Multi-source batched pipeline (scCSC-based SpMM; see
      // core/turbobc_batched.hpp). Only this engine's graph is resident, so
      // the reported peak is the batched engine's own.
      bc::TurboBCBatched batched(
          *device, g,
          {.batch_size = batch, .advance = advance, .compress = compress});
      r = batched.run_exact();
      mode = "exact, batched x" + std::to_string(batch);
      variant = bc::Variant::kScCsc;  // the MS-BFS kernels are scCSC
    } else {
      bc::TurboBC turbo(*device, g,
                        {.variant = variant,
                         .edge_bc = args.has("edge-bc"),
                         .advance = advance,
                         .compress = compress});
      variant = turbo.options().variant;
      if (args.has("exact")) {
        r = turbo.run_exact();
        mode = "exact";
      } else if (args.has("approx")) {
        r = turbo.run_approximate(
            {.num_sources = static_cast<vidx_t>(args.get_count("approx", 32)),
             .seed = static_cast<std::uint64_t>(args.get_int("seed", 1))});
        mode = "approximate (" + std::to_string(r.sources) + " sources)";
      } else {
        r = turbo.run_single_source(source);
        mode = "single-source";
      }
    }
  }

  // Brandes verification, shared by the text and JSON paths: worst relative
  // error, or unset when the mode has no exact oracle.
  std::optional<double> verify_err;
  if (args.has("verify")) {
    std::vector<bc_t> golden;
    if (args.has("exact")) {
      golden = baseline::brandes_bc(g);
    } else if (!args.has("approx")) {
      golden = baseline::brandes_delta(g, source);
    }
    if (!golden.empty()) {
      double worst = 0.0;
      for (std::size_t v = 0; v < golden.size(); ++v) {
        worst = std::max(worst, std::abs(r.bc[v] - golden[v]) /
                                    std::max(1.0, std::abs(golden[v])));
      }
      verify_err = worst;
    }
  }

  const int top_k = static_cast<int>(args.get_int("top", 10));
  if (args.has("json")) {
    out << "{\n"
        << "  \"mode\": \"" << mode << "\",\n"
        << "  \"variant\": \"" << bc::to_string(variant) << "\",\n";
    if (advance != bc::Advance::kPush) {
      out << "  \"advance\": \"" << bc::to_string(advance) << "\",\n";
    }
    if (compress) {
      out << "  \"compress\": true,\n"
          << "  \"compressed_graph_bytes\": " << cgraph->model_bytes()
          << ",\n"
          << "  \"compression_ratio\": "
          << fixed(cgraph->compression_ratio(), 4) << ",\n";
    }
    if (sledger) {
      out << "  \"stream\": {\"window\": " << args.get_count("stream-window", 2)
          << ", \"shards\": " << stream_shards
          << ", \"fetch_free\": " << (stream_fetch_free ? "true" : "false")
          << ", \"uploads\": " << sledger->shard_uploads
          << ", \"upload_bytes\": " << sledger->upload_bytes
          << ", \"refetch_bytes\": " << sledger->refetch_bytes
          << ", \"evictions\": " << sledger->evictions << "},\n";
    }
    out << "  \"modeled_ms\": " << fixed(r.device_seconds * 1e3, 6) << ",\n"
        << "  \"peak_bytes\": " << r.peak_device_bytes << ",\n";
    if (dres) {
      out << "  \"devices\": " << devices << ",\n"
          << "  \"strategy\": \"" << dist::to_string(strategy_used) << "\",\n"
          << "  \"comm_ms\": " << fixed(dres->comm_seconds * 1e3, 6) << ",\n"
          << "  \"comm_bytes\": " << dres->comm_bytes << ",\n"
          << "  \"shards\": [";
      bool sfirst = true;
      for (const dist::ShardInfo& s : dres->shards) {
        out << (sfirst ? "" : ", ") << "{\"device\": " << s.device
            << ", \"variant\": \"" << bc::to_string(s.variant) << "\""
            << ", \"cols\": [" << s.col_begin << ", " << s.col_end << "]"
            << ", \"arcs\": " << s.arcs
            << ", \"peak_bytes\": " << s.peak_bytes
            << ", \"modeled_ms\": " << fixed(s.device_seconds * 1e3, 6)
            << ", \"sent_bytes\": " << s.comm_bytes_sent
            << ", \"received_bytes\": " << s.comm_bytes_received << "}";
        sfirst = false;
      }
      out << "],\n";
    }
    if (hres) {
      out << "  \"hybrid\": {\"devices\": " << devices
          << ", \"blocks\": " << hres->num_blocks
          << ", \"probe_block\": " << hres->probe_block
          << ", \"makespan_ms\": " << fixed(hres->makespan_seconds * 1e3, 6)
          << ", \"busy_ms\": " << fixed(hres->busy_seconds * 1e3, 6)
          << ", \"processors\": [";
      bool pfirst = true;
      for (const hybrid::ProcessorStat& p : hres->processors) {
        out << (pfirst ? "" : ", ") << "{\"name\": \"" << p.name
            << "\", \"blocks\": " << p.blocks
            << ", \"sources\": " << p.sources
            << ", \"busy_ms\": " << fixed(p.busy_seconds * 1e3, 6)
            << ", \"utilization\": " << fixed(p.utilization, 4) << "}";
        pfirst = false;
      }
      out << "]},\n";
    }
    out << "  \"top\": [";
    bool first = true;
    for (const vidx_t v : top_order(r.bc, top_k)) {
      out << (first ? "" : ", ") << "{\"vertex\": " << v << ", \"bc\": "
          << fixed(r.bc[static_cast<std::size_t>(v)], 6) << "}";
      first = false;
    }
    out << "]";
    if (args.has("edge-bc")) {
      bc_t top_edge = 0.0;
      for (const bc_t v : r.edge_bc) top_edge = std::max(top_edge, v);
      out << ",\n  \"edge_bc\": {\"arcs\": " << r.edge_bc.size()
          << ", \"max\": " << fixed(top_edge, 6) << "}";
    }
    if (verify_err) {
      out << ",\n  \"verify_max_rel_err\": " << fixed(*verify_err, 9);
    }
    out << "\n}\n";
  } else {
    out << mode << " BC via " << (compress ? "compressed " : "")
        << bc::to_string(variant)
        << (advance != bc::Advance::kPush
                ? "/" + std::string(bc::to_string(advance))
                : "")
        << ": "
        << fixed(r.device_seconds * 1e3, 3) << " ms modeled, peak "
        << human_bytes(r.peak_device_bytes) << '\n';
    if (compress) {
      out << "compressed graph: " << human_bytes(cgraph->model_bytes())
          << " (ratio " << fixed(cgraph->compression_ratio(), 2)
          << "x vs raw CSC)\n";
    }
    if (sledger) {
      out << "streamed " << stream_shards << " shards through a window of "
          << args.get_count("stream-window", 2) << ": "
          << sledger->shard_uploads << " uploads, "
          << human_bytes(sledger->upload_bytes) << " fetched ("
          << human_bytes(sledger->refetch_bytes) << " refetched, "
          << sledger->evictions << " evictions"
          << (stream_fetch_free ? ", fetch-free fast path" : "") << ")\n";
    }
    if (dres) {
      out << devices << " modeled devices, "
          << dist::to_string(strategy_used) << " strategy: comm "
          << fixed(dres->comm_seconds * 1e3, 3) << " ms, "
          << human_bytes(dres->comm_bytes) << " exchanged\n";
      Table st({"device", "variant", "cols", "arcs", "peak", "modeled ms",
                "sent", "received"});
      for (const dist::ShardInfo& s : dres->shards) {
        st.add_row({std::to_string(s.device),
                    std::string(bc::to_string(s.variant)),
                    "[" + std::to_string(s.col_begin) + ", " +
                        std::to_string(s.col_end) + ")",
                    std::to_string(s.arcs), human_bytes(s.peak_bytes),
                    fixed(s.device_seconds * 1e3, 3),
                    human_bytes(s.comm_bytes_sent),
                    human_bytes(s.comm_bytes_received)});
      }
      st.print(out);
    }
    if (hres) {
      out << "hybrid co-execution: " << devices
          << " modeled device(s) + host, " << hres->num_blocks
          << " blocks, makespan " << fixed(hres->makespan_seconds * 1e3, 3)
          << " ms (serial busy " << fixed(hres->busy_seconds * 1e3, 3)
          << " ms)\n";
      Table ht({"processor", "blocks", "sources", "busy ms", "util"});
      for (const hybrid::ProcessorStat& p : hres->processors) {
        ht.add_row({p.name, std::to_string(p.blocks),
                    std::to_string(p.sources),
                    fixed(p.busy_seconds * 1e3, 3),
                    fixed(p.utilization, 3)});
      }
      ht.print(out);
    }
    print_top_vertices(out, r.bc, top_k);

    if (args.has("edge-bc")) {
      bc_t top_edge = 0.0;
      for (const bc_t v : r.edge_bc) top_edge = std::max(top_edge, v);
      out << "edge BC computed for " << r.edge_bc.size()
          << " arcs (max arc value " << fixed(top_edge, 3) << ")\n";
    }

    if (args.has("verify") && verify_err) {
      out << "verification vs Brandes: max rel err " << fixed(*verify_err, 9)
          << (*verify_err < 1e-6 ? " (OK)" : " (MISMATCH)") << '\n';
    } else if (args.has("verify")) {
      out << "verification: skipped (approximate mode has no exact oracle)\n";
    }
  }
  if (verify_err && *verify_err >= 1e-6) return 1;

  if (want_trace) {
    const std::string path = args.get("trace", "trace.json");
    std::ofstream f(path);
    sim::write_chrome_trace(f, *device);
    out << "kernel timeline written to " << path << '\n';
  }
  return 0;
}

int cmd_approx(const CliArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional().size() < 2) {
    err << "approx: missing graph file\n" << cli_usage();
    return 2;
  }
  const auto g = load_graph(args, 1);

  approx::ApproxOptions opt;
  opt.epsilon = args.get_double("epsilon", 0.05);
  opt.delta = args.get_double("delta", 0.1);
  opt.top_k = static_cast<vidx_t>(args.get_int("topk", 0));
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opt.sampler = approx::parse_sampler(args.get("sampler", "uniform"));
  opt.engine = approx::parse_engine(args.get("engine", "scalar"));
  opt.variant = parse_variant(args, g);
  opt.advance = parse_advance(args);
  opt.batch_size = parse_batch(args);
  opt.max_sources = static_cast<vidx_t>(args.get_int("max-sources", 0));
  opt.initial_wave = static_cast<vidx_t>(args.get_int("initial-wave", 0));
  if (opt.epsilon <= 0.0) throw UsageError("--epsilon must be positive");
  if (opt.delta <= 0.0 || opt.delta >= 1.0) {
    throw UsageError("--delta must be in (0, 1)");
  }
  if (opt.top_k < 0 || opt.top_k > g.num_vertices()) {
    throw UsageError("--topk must be in [0, n]");
  }

  const auto devices = static_cast<int>(args.get_count("devices", 1));
  approx::ApproxResult r;
  if (devices > 1 || args.has("dist")) {
    if (opt.engine == approx::Engine::kBatched) {
      throw UsageError("--engine batched is single-device only");
    }
    const auto strategy = dist::parse_strategy(args.get("dist", "replicate"));
    if (!strategy) {
      throw UsageError("unknown --dist '" + args.get("dist", "replicate") +
                       "' (expected auto|replicate|partition)");
    }
    if (*strategy == dist::Strategy::kPartition) {
      throw UsageError(
          "approx: moment waves need whole-graph replicas (--dist replicate)");
    }
    sim::Topology topo(topology_props(args, devices));
    dist::DistTurboBC engine(
        topo, g, {.strategy = dist::Strategy::kReplicate,
                  .variant = opt.variant,
                  .advance = opt.advance});
    r = approx::run_adaptive(engine, g, opt);
  } else {
    sim::Device device;
    r = approx::run_adaptive(device, g, opt);
  }

  const int top_k = static_cast<int>(
      args.get_int("top", opt.top_k > 0 ? opt.top_k : 10));
  if (args.has("json")) {
    out << "{\n"
        << "  \"mode\": \"approx\",\n"
        << "  \"sampler\": \"" << approx::sampler_name(opt.sampler) << "\",\n"
        << "  \"engine\": \"" << approx::engine_name(opt.engine) << "\",\n"
        << "  \"variant\": \"" << bc::to_string(opt.variant) << "\",\n"
        << "  \"epsilon\": " << fixed(opt.epsilon, 6) << ",\n"
        << "  \"delta\": " << fixed(opt.delta, 6) << ",\n"
        << "  \"topk\": " << opt.top_k << ",\n"
        << "  \"seed\": " << opt.seed << ",\n";
    if (devices > 1) out << "  \"devices\": " << devices << ",\n";
    out << "  \"vertices\": " << g.num_vertices() << ",\n"
        << "  \"sources_used\": " << r.sources_used << ",\n"
        << "  \"exact_sources\": " << g.num_vertices() << ",\n"
        << "  \"converged\": " << (r.converged ? "true" : "false") << ",\n"
        << "  \"modeled_ms\": " << fixed(r.device_seconds * 1e3, 6) << ",\n"
        << "  \"peak_bytes\": " << r.peak_device_bytes << ",\n"
        << "  \"norm\": " << fixed(r.norm, 6) << ",\n"
        << "  \"max_half_width\": " << fixed(r.max_half_width, 6) << ",\n"
        << "  \"max_rel_half_width\": "
        << fixed(r.max_half_width / r.norm, 9) << ",\n"
        << "  \"waves\": [";
    bool first = true;
    for (const approx::WaveStats& w : r.waves) {
      out << (first ? "" : ", ") << "{\"sources\": " << w.sources
          << ", \"modeled_ms\": " << fixed(w.device_seconds * 1e3, 6)
          << ", \"max_half_width\": " << fixed(w.max_half_width, 6)
          << ", \"converged\": " << (w.converged ? "true" : "false") << "}";
      first = false;
    }
    out << "],\n  \"top\": [";
    first = true;
    for (const vidx_t v : top_order(r.bc, top_k)) {
      out << (first ? "" : ", ") << "{\"vertex\": " << v << ", \"bc\": "
          << fixed(r.bc[static_cast<std::size_t>(v)], 6)
          << ", \"half_width\": "
          << fixed(r.half_width[static_cast<std::size_t>(v)], 6) << "}";
      first = false;
    }
    out << "]\n}\n";
  } else {
    out << "approx BC (" << approx::sampler_name(opt.sampler) << " pivots, "
        << approx::engine_name(opt.engine) << " engine, "
        << (devices > 1 ? std::to_string(devices) + " devices, " : "")
        << bc::to_string(opt.variant) << "): " << r.sources_used << "/"
        << g.num_vertices() << " sources, "
        << (r.converged ? "converged" : "budget exhausted") << ", "
        << fixed(r.device_seconds * 1e3, 3) << " ms modeled, peak "
        << human_bytes(r.peak_device_bytes) << '\n'
        << "max half-width " << fixed(r.max_half_width, 3) << " ("
        << fixed(100.0 * r.max_half_width / r.norm, 4)
        << "% of max possible BC) at confidence "
        << fixed(100.0 * (1.0 - opt.delta), 1) << "%\n";

    Table waves({"wave", "sources", "modeled ms", "max half-width"});
    int wave_no = 0;
    for (const approx::WaveStats& w : r.waves) {
      waves.add_row({std::to_string(++wave_no), std::to_string(w.sources),
                     fixed(w.device_seconds * 1e3, 3),
                     fixed(w.max_half_width, 3)});
    }
    waves.print(out);

    Table t({"rank", "vertex", "bc", "±"});
    int rank = 0;
    for (const vidx_t v : top_order(r.bc, top_k)) {
      t.add_row({std::to_string(++rank), std::to_string(v),
                 fixed(r.bc[static_cast<std::size_t>(v)], 3),
                 fixed(r.half_width[static_cast<std::size_t>(v)], 3)});
    }
    t.print(out);
  }
  return 0;
}

/// --variant/--advance/--sampler/--seed into serve-engine options (shared by
/// serve and daemon).
serve::ServeOptions parse_serve_engine_options(const CliArgs& args,
                                               const graph::EdgeList& g) {
  serve::ServeOptions opt;
  opt.variant = parse_variant(args, g);
  opt.advance = parse_advance(args);
  opt.sampler = approx::parse_sampler(args.get("sampler", "component"));
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  return opt;
}

int cmd_serve(const CliArgs& args, std::ostream& out, std::ostream& /*err*/) {
  graph::EdgeList g = load_graph(args, 1);
  serve::SessionOptions opt;
  opt.json = args.has("json");
  opt.wire = args.has("wire");
  const std::int64_t top = args.get_int("top", 5);
  if (top < 0) throw UsageError("--top must be >= 0");
  opt.top = static_cast<vidx_t>(top);
  opt.engine = parse_serve_engine_options(args, g);

  const std::string script = args.get("script", "");
  if (script.empty()) {
    serve::run_session(std::move(g), opt, std::cin, out);
  } else {
    std::ifstream in(script);
    if (!in) throw Error("serve: cannot open script '" + script + "'");
    serve::run_session(std::move(g), opt, in, out);
  }
  return 0;
}

int cmd_daemon(const CliArgs& args, std::ostream& out, std::ostream& /*err*/) {
  graph::EdgeList g = load_graph(args, 1);
  daemon::DaemonOptions opt;
  opt.listen = args.get("listen", "");
  if (opt.listen.empty()) {
    throw UsageError("daemon: --listen HOST:PORT or --listen unix:PATH is "
                     "required");
  }
  opt.json = args.has("json");
  const std::int64_t top = args.get_int("top", 5);
  if (top < 0) throw UsageError("--top must be >= 0");
  opt.top = static_cast<vidx_t>(top);
  // Counted flags go through get_count so zero, negatives, garbage, and
  // overflow all get the same prose usage error (exit 2) — the Scheduler
  // ctor no longer coerces zeros for callers that skip the CLI.
  opt.sched.update_queue_limit =
      static_cast<std::size_t>(args.get_count("queue-limit", 8));
  opt.sched.reader_lanes =
      static_cast<unsigned>(args.get_count("readers", 1));
  const std::int64_t max_line = args.get_int("max-line", 4096);
  if (max_line < 64) throw UsageError("--max-line must be >= 64");
  opt.max_line = static_cast<std::size_t>(max_line);
  opt.engine = parse_serve_engine_options(args, g);

  daemon::DaemonServer server(std::move(g), opt);
  server.start();
  // Scripts (CI's daemon-smoke) parse this line for the resolved ephemeral
  // port, so it must come out before the first connection is served.
  out << "daemon: listening on " << server.bound().display() << '\n';
  out.flush();
  server.wait();
  const daemon::Scheduler::Metrics m = server.scheduler().metrics();
  out << "daemon: stopped after " << server.connections_accepted()
      << " connection(s), " << m.queries << " queries, " << m.updates
      << " updates (epoch " << m.epoch << ")\n";
  return 0;
}

int cmd_client(const CliArgs& args, std::ostream& out, std::ostream& /*err*/) {
  daemon::ClientOptions opt;
  opt.connect = args.get("connect", "");
  if (opt.connect.empty()) {
    throw UsageError("client: --connect HOST:PORT or --connect unix:PATH is "
                     "required");
  }
  const std::string script = args.get("script", "");
  if (script.empty()) {
    return daemon::run_client(opt, std::cin, out);
  }
  std::ifstream in(script);
  if (!in) throw Error("client: cannot open script '" + script + "'");
  return daemon::run_client(opt, in, out);
}

int run_cli(const CliArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional().empty()) {
    err << cli_usage();
    return 2;
  }
  const std::string& cmd = args.positional()[0];
  try {
    // Pool width for the host-parallel simulation engine; every modeled
    // number is bit-identical for any width, so this is purely a wall-clock
    // knob. 0 = hardware concurrency.
    sim::ExecutorPool::instance().set_threads(
        static_cast<unsigned>(args.get_count("threads", 0)));
    if (cmd == "info") return cmd_info(args, out, err);
    if (cmd == "generate") return cmd_generate(args, out, err);
    if (cmd == "stats") return cmd_stats(args, out, err);
    if (cmd == "bfs") return cmd_bfs(args, out, err);
    if (cmd == "bc") return cmd_bc(args, out, err);
    if (cmd == "approx") return cmd_approx(args, out, err);
    if (cmd == "serve") return cmd_serve(args, out, err);
    if (cmd == "daemon") return cmd_daemon(args, out, err);
    if (cmd == "client") return cmd_client(args, out, err);
  } catch (const UsageError& e) {
    err << "error: " << e.what() << '\n' << cli_usage();
    return 2;
  } catch (const Error& e) {
    err << "error: " << e.what() << '\n';
    return 1;
  }
  err << "unknown command '" << cmd << "'\n" << cli_usage();
  return 2;
}

}  // namespace turbobc::tools
