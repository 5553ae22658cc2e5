#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <optional>

namespace artsparse::e2e {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::size_t kMaxErrors = 5;
/// Spans kept per lane; a lane that fills up stops recording.
constexpr std::size_t kMaxSpansPerLane = std::size_t{1} << 18;

std::string org_slug(OrgKind org) {
  switch (org) {
    case OrgKind::kCoo:
      return "coo";
    case OrgKind::kLinear:
      return "linear";
    case OrgKind::kGcsr:
      return "gcsr";
    case OrgKind::kGcsc:
      return "gcsc";
    case OrgKind::kCsf:
      return "csf";
    case OrgKind::kSortedCoo:
      return "sorted_coo";
    case OrgKind::kBcsr:
      return "bcsr";
  }
  return "unknown";
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::optional<Metric> tail_metric(const std::string& op,
                                  const Samples& ms) {
  const std::pair<double, const char*> tails[] = {
      {0.999, "p999"}, {0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}};
  for (const auto& [q, label] : tails) {
    if ((1.0 - q) * static_cast<double>(ms.size()) >= 10.0) {
      return Metric{op + "_" + label + "_ms", ms.quantile(q), "ms",
                    ms.size()};
    }
  }
  return std::nullopt;
}

/// Points and values gathered per fragment in hit order, before the merge.
struct Found {
  CoordBuffer coords;
  std::vector<value_t> values;
};

/// The store's merge: linear addresses, stable sort, gather.
void merge_by_address(const Found& found, const Shape& shape,
                      CoordBuffer& coords, std::vector<value_t>& values) {
  std::vector<index_t> addresses(found.coords.size());
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    addresses[i] = linearize(found.coords.point(i), shape);
  }
  const std::vector<std::size_t> order = sort_permutation(addresses);
  const std::size_t rank = shape.rank();
  std::vector<index_t> flat(order.size() * rank);
  values.resize(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto point = found.coords.point(order[i]);
    std::copy(point.begin(), point.end(), flat.begin() + i * rank);
    values[i] = found.values[order[i]];
  }
  coords = CoordBuffer(rank, std::move(flat));
}

bool same_bytes(const ReadResult& op, const CoordBuffer& coords,
                const std::vector<value_t>& values) {
  return op.coords == coords && op.values.size() == values.size() &&
         (values.empty() ||
          std::memcmp(op.values.data(), values.data(),
                      values.size() * sizeof(value_t)) == 0);
}

std::size_t result_bytes(const CoordBuffer& coords, std::size_t values) {
  return values * sizeof(value_t) +
         coords.size() * coords.rank() * sizeof(index_t);
}

/// The shared replay body. `kernel(fragment, found)` runs the format's
/// search for one fragment and returns the units it processed.
template <typename Kernel>
bool replay(const Snapshot& snapshot, const Box& discover_box,
            const ValueRange& range, Kernel&& kernel, KernelCost& cost,
            const ReadResult& op, ShadowAdmission& shadow,
            LayerProfile& profile, SpanRecorder* spans, std::size_t lane,
            std::uint64_t op_id) {
  const DeviceModel model = DeviceModel::unthrottled();
  const Clock::time_point t0 = Clock::now();
  std::vector<const ManifestEntry*> hits =
      snapshot.manifest().discover(discover_box);
  std::erase_if(hits, [&](const ManifestEntry* entry) {
    return !range.overlaps(entry->value_min, entry->value_max);
  });
  const Clock::time_point t1 = Clock::now();
  if (spans) spans->record(lane, "replay.discover", t0, t1, op_id);

  Found found{CoordBuffer(snapshot.tensor_shape().rank()), {}};
  std::vector<std::pair<OrgKind, std::pair<double, std::size_t>>> kernels;
  std::vector<double> fragment_bytes;
  for (const ManifestEntry* entry : hits) {
    const Clock::time_point g0 = Clock::now();
    const FragmentCache::Lookup lookup =
        snapshot.cache().get(entry->cache_key, entry->path(), model);
    const Clock::time_point g1 = Clock::now();
    const std::size_t units = kernel(*lookup.fragment, found);
    const Clock::time_point g2 = Clock::now();
    if (spans) {
      spans->record(lane, "replay.cache_get", g0, g1, op_id);
      spans->record(lane, "replay.kernel", g1, g2, op_id);
    }
    kernels.push_back({lookup.fragment->org, {seconds_between(g1, g2), units}});
    fragment_bytes.push_back(
        static_cast<double>(lookup.fragment->memory_bytes));
  }

  const Clock::time_point m0 = Clock::now();
  CoordBuffer coords;
  std::vector<value_t> values;
  merge_by_address(found, snapshot.tensor_shape(), coords, values);
  const Clock::time_point m1 = Clock::now();
  parallel_for_each(hits.size(), [](std::size_t) {}, 0, 2);
  const Clock::time_point p1 = Clock::now();
  Clock::time_point l1 = p1;
  if (!hits.empty()) {
    load_open_fragment(hits.front()->path(), model);
    l1 = Clock::now();
  }
  const Clock::time_point a0 = Clock::now();
  {
    const Ticket ticket = shadow.controller.admit(shadow.tenant);
    shadow.controller.charge_bytes(shadow.tenant,
                                   result_bytes(coords, values.size()));
  }
  const Clock::time_point a1 = Clock::now();
  if (spans) {
    spans->record(lane, "replay.merge", m0, m1, op_id);
    spans->record(lane, "replay.spawn", m1, p1, op_id);
    if (!hits.empty()) spans->record(lane, "replay.load", p1, l1, op_id);
    spans->record(lane, "replay.admit", a0, a1, op_id);
  }

  const std::lock_guard<std::mutex> lock(profile.mutex);
  ++profile.replays;
  profile.discover_us.add(seconds_between(t0, t1) * 1e6);
  profile.merge_ms.add(seconds_between(m0, m1) * 1e3);
  profile.spawn_us.add(seconds_between(m1, p1) * 1e6);
  if (!hits.empty()) profile.load_ms.add(seconds_between(p1, l1) * 1e3);
  profile.admit_us.add(seconds_between(a0, a1) * 1e6);
  for (const auto& [org, spent] : kernels) {
    cost[org].first += spent.first;
    cost[org].second += spent.second;
  }
  for (const double bytes : fragment_bytes) profile.fragment_bytes.add(bytes);
  return same_bytes(op, coords, values);
}

}  // namespace

// ---------------------------------------------------------------------------
// Samples, outcomes, tallies.
// ---------------------------------------------------------------------------

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(sorted.size())));
  return sorted[index - 1];
}

double Samples::max() const {
  return values_.empty() ? 0.0
                         : *std::max_element(values_.begin(), values_.end());
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

void Outcome::error(const std::string& what) {
  ++failed;
  if (errors.size() < kMaxErrors) errors.push_back(what);
}

void Outcome::mismatch(const std::string& what) {
  ++mismatches;
  error("mismatch: " + what);
}

void Outcome::append(const Outcome& other) {
  attempted += other.attempted;
  failed += other.failed;
  mismatches += other.mismatches;
  for (const std::string& e : other.errors) {
    if (errors.size() < kMaxErrors) errors.push_back(e);
  }
}

void ReadTally::add(const ReadResult& result, double latency_seconds) {
  latency_ms.add(latency_seconds * 1e3);
  unattributed_ms.add((latency_seconds - result.times.total()) * 1e3);
  seconds += latency_seconds;
  discover += result.times.discover;
  extract += result.times.extract;
  query += result.times.query;
  merge += result.times.merge;
  hits += result.times.cache_hits;
  misses += result.times.cache_misses;
  fragments += result.fragments_visited;
  ++ops;
}

void ReadTally::append(const ReadTally& other) {
  latency_ms.append(other.latency_ms);
  unattributed_ms.append(other.unattributed_ms);
  seconds += other.seconds;
  discover += other.discover;
  extract += other.extract;
  query += other.query;
  merge += other.merge;
  hits += other.hits;
  misses += other.misses;
  fragments += other.fragments;
  ops += other.ops;
}

void WriteTally::add(const WriteResult& result, double latency_seconds,
                     OrgKind org) {
  latency_ms.add(latency_seconds * 1e3);
  build_ms.add(result.times.build * 1e3);
  reorg_ms.add(result.times.reorg * 1e3);
  commit_ms.add(result.times.write * 1e3);
  others_ms.add(result.times.others * 1e3);
  build_sort_ms.add(result.times.build_sort * 1e3);
  build_by_org[org].first += result.times.build;
  build_by_org[org].second += result.point_count;
  io_retries += result.times.io_retries;
  file_bytes += result.file_bytes;
  points += result.point_count;
}

void WriteTally::append(const WriteTally& other) {
  latency_ms.append(other.latency_ms);
  build_ms.append(other.build_ms);
  reorg_ms.append(other.reorg_ms);
  commit_ms.append(other.commit_ms);
  others_ms.append(other.others_ms);
  build_sort_ms.append(other.build_sort_ms);
  for (const auto& [org, cost] : other.build_by_org) {
    build_by_org[org].first += cost.first;
    build_by_org[org].second += cost.second;
  }
  io_retries += other.io_retries;
  file_bytes += other.file_bytes;
  points += other.points;
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

SpanRecorder::SpanRecorder(std::size_t lanes) : lanes_(lanes) {}

void SpanRecorder::record(std::size_t lane, const char* name,
                          Clock::time_point start, Clock::time_point end,
                          std::uint64_t op) {
  std::vector<Span>& spans = lanes_.at(lane);
  if (spans.size() >= kMaxSpansPerLane) return;
  spans.push_back(Span{name, since_origin(start),
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           end - start)
                           .count(),
                       op});
}

void SpanRecorder::record_breakdown(std::size_t lane, Clock::time_point start,
                                    const ReadBreakdown& times,
                                    std::uint64_t op) {
  const std::pair<const char*, double> stages[] = {
      {"read.discover", times.discover},
      {"read.extract", times.extract},
      {"read.query", times.query},
      {"read.merge", times.merge}};
  Clock::time_point t = start;
  for (const auto& [name, seconds] : stages) {
    const Clock::time_point end =
        t + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(seconds));
    record(lane, name, t, end, op);
    t = end;
  }
}

std::size_t SpanRecorder::span_count() const {
  std::size_t n = 0;
  for (const auto& lane : lanes_) n += lane.size();
  return n;
}

void SpanRecorder::write_chrome_trace(
    const std::filesystem::path& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  char line[256];
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    for (const Span& span : lanes_[lane]) {
      std::snprintf(line, sizeof(line),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"op\":%llu}}",
                    first ? "" : ",", span.name, lane,
                    static_cast<double>(span.start_ns) / 1e3,
                    static_cast<double>(span.duration_ns) / 1e3,
                    static_cast<unsigned long long>(span.op));
      out << line;
      first = false;
    }
  }
  out << "\n]}\n";
}

// ---------------------------------------------------------------------------
// Replays.
// ---------------------------------------------------------------------------

bool replay_scan(const Snapshot& snapshot, const Box& box,
                 const ValueRange& range, const ReadResult& op,
                 ShadowAdmission& shadow, LayerProfile& profile,
                 SpanRecorder* spans, std::size_t lane, std::uint64_t op_id) {
  const std::size_t rank = snapshot.tensor_shape().rank();
  auto kernel = [&](const OpenFragment& fragment, Found& found) {
    CoordBuffer points(rank);
    std::vector<std::size_t> slots;
    fragment.format->scan_box(box, points, slots);
    for (std::size_t k = 0; k < slots.size(); ++k) {
      const value_t value = fragment.values[slots[k]];
      if (range.matches(value)) {
        found.coords.append(points.point(k));
        found.values.push_back(value);
      }
    }
    return slots.size();
  };
  return replay(snapshot, box, range, kernel, profile.scan_box, op, shadow,
                profile, spans, lane, op_id);
}

bool replay_read(const Snapshot& snapshot, const CoordBuffer& queries,
                 const ReadResult& op, ShadowAdmission& shadow,
                 LayerProfile& profile, SpanRecorder* spans,
                 std::size_t lane, std::uint64_t op_id) {
  auto kernel = [&](const OpenFragment& fragment, Found& found) {
    const std::vector<std::size_t> slots = fragment.format->read(queries);
    for (std::size_t q = 0; q < slots.size(); ++q) {
      if (slots[q] != kNotFound) {
        found.coords.append(queries.point(q));
        found.values.push_back(fragment.values[slots[q]]);
      }
    }
    return queries.size();
  };
  return replay(snapshot, Box::bounding(queries), ValueRange{}, kernel,
                profile.read, op, shadow, profile, spans, lane, op_id);
}

// ---------------------------------------------------------------------------
// Checks.
// ---------------------------------------------------------------------------

std::string check_scan(const ReadResult& result, const Box& box,
                       const Shape& shape, const ValueRange& range,
                       bool unique, std::size_t expected_distinct) {
  if (result.coords.size() != result.values.size()) {
    return "coordinate and value counts differ";
  }
  std::size_t distinct = 0;
  index_t previous = 0;
  for (std::size_t i = 0; i < result.values.size(); ++i) {
    const auto point = result.coords.point(i);
    if (!box.contains(point)) return "point outside " + box.to_string();
    const index_t address = linearize(point, shape);
    if (i > 0 && (address < previous || (unique && address == previous))) {
      return "addresses out of order in " + box.to_string();
    }
    if (i == 0 || address != previous) ++distinct;
    const value_t value = result.values[i];
    if (std::floor(value) != static_cast<value_t>(address)) {
      return "value " + std::to_string(value) + " does not encode address " +
             std::to_string(address);
    }
    if (!range.matches(value)) return "value outside the predicate range";
    previous = address;
  }
  if (distinct != expected_distinct) {
    return "expected " + std::to_string(expected_distinct) +
           " cells in " + box.to_string() + ", got " +
           std::to_string(distinct);
  }
  return {};
}

std::string check_exact(
    const ReadResult& result, const Shape& shape,
    const std::vector<std::pair<index_t, value_t>>& expected) {
  if (result.values.size() != expected.size() ||
      result.coords.size() != expected.size()) {
    return "expected " + std::to_string(expected.size()) + " points, got " +
           std::to_string(result.values.size());
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (linearize(result.coords.point(i), shape) != expected[i].first ||
        result.values[i] != expected[i].second) {
      return "point " + std::to_string(i) + " differs from the dataset";
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// Universe.
// ---------------------------------------------------------------------------

bool Universe::contains(index_t address) const {
  return std::binary_search(all.begin(), all.end(), address);
}

std::size_t Universe::count_in(const Box& box,
                               const ValueRange& range) const {
  std::size_t count = 0;
  std::vector<index_t> point(shape.rank());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const Box part = blocks[b].intersect(box);
    if (part.empty()) continue;
    // The block's addresses ascend, so the part's corners bound the run
    // of addresses that can lie inside it.
    const std::vector<index_t>& cells = addresses[b];
    const auto first = std::lower_bound(cells.begin(), cells.end(),
                                        linearize(part.lo(), shape));
    const auto last = std::upper_bound(first, cells.end(),
                                       linearize(part.hi(), shape));
    for (auto it = first; it != last; ++it) {
      delinearize(*it, shape, point);
      if (part.contains(point) && range.matches(static_cast<value_t>(*it))) {
        ++count;
      }
    }
  }
  return count;
}

Universe make_universe(const Shape& shape, index_t block_x, index_t block_y,
                       index_t block_z, double fill, std::uint64_t seed) {
  Universe universe;
  universe.shape = shape;
  SplitMix64 seeds(seed);
  for (index_t x0 = 0; x0 < shape.extent(0); x0 += block_x) {
    for (index_t y0 = 0; y0 < shape.extent(1); y0 += block_y) {
      for (index_t z0 = 0; z0 < shape.extent(2); z0 += block_z) {
        Box block({x0, y0, z0},
                  {x0 + block_x - 1, y0 + block_y - 1, z0 + block_z - 1});
        Xoshiro256 rng(seeds.next());
        std::vector<index_t> cells;
        for (index_t x = x0; x < x0 + block_x; ++x) {
          for (index_t y = y0; y < y0 + block_y; ++y) {
            for (index_t z = z0; z < z0 + block_z; ++z) {
              if (rng.next_double() < fill) {
                const index_t p[] = {x, y, z};
                cells.push_back(linearize(p, shape));
              }
            }
          }
        }
        universe.all.insert(universe.all.end(), cells.begin(), cells.end());
        universe.blocks.push_back(std::move(block));
        universe.addresses.push_back(std::move(cells));
      }
    }
  }
  std::sort(universe.all.begin(), universe.all.end());
  return universe;
}

void make_payload(const std::vector<index_t>& addresses, const Shape& shape,
                  std::uint64_t version, std::uint64_t shuffle_seed,
                  CoordBuffer& coords, std::vector<value_t>& values) {
  std::vector<index_t> order = addresses;
  Xoshiro256 rng(shuffle_seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  coords = CoordBuffer(shape.rank());
  coords.reserve(order.size());
  values.clear();
  values.reserve(order.size());
  std::vector<index_t> point(shape.rank());
  for (const index_t address : order) {
    delinearize(address, shape, point);
    coords.append(point);
    values.push_back(static_cast<value_t>(address) +
                     static_cast<value_t>(version) / 1024.0);
  }
}

Box random_box(Xoshiro256& rng, const Shape& shape, index_t edge) {
  std::vector<index_t> lo(shape.rank());
  std::vector<index_t> hi(shape.rank());
  for (std::size_t d = 0; d < shape.rank(); ++d) {
    lo[d] = rng.next_below(shape.extent(d) - edge + 1);
    hi[d] = lo[d] + edge - 1;
  }
  return Box(std::move(lo), std::move(hi));
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

std::vector<Metric> layer_metrics(const LayerInputs& in) {
  const ReadTally& scans = *in.scans;
  const ReadTally& reads = *in.reads;
  const WriteTally& writes = *in.writes;
  const LayerProfile& profile = *in.profile;
  std::vector<Metric> out;
  auto add = [&](std::string name, double value, const char* unit,
                 std::size_t samples) {
    out.push_back(Metric{std::move(name), std::isfinite(value) ? value : 0.0,
                         unit, samples});
  };
  const std::size_t replays = profile.replays;

  add("service.admit_us", profile.admit_us.median(), "us",
      profile.admit_us.size());
  add("service.rejected_ops", static_cast<double>(in.rejected), "count",
      reads.ops + writes.latency_ms.size());
  add("service.queue_wait_ms", scans.unattributed_ms.median(), "ms",
      scans.unattributed_ms.size());
  add("service.batch_size_mean",
      ratio(static_cast<double>(in.batch.requests),
            static_cast<double>(in.batch.batches)),
      "count", in.batch.batches);
  add("service.max_batch", static_cast<double>(in.batch.max_batch), "count",
      in.batch.batches);
  add("service.coalesced_ratio",
      ratio(static_cast<double>(in.batch.coalesced()),
            static_cast<double>(in.batch.requests)),
      "ratio", in.batch.requests);
  add("scan.max_ms", scans.latency_ms.max(), "ms", scans.latency_ms.size());

  add("manifest.discover_us", profile.discover_us.median(), "us",
      profile.discover_us.size());
  add("manifest.fragments_per_op",
      ratio(static_cast<double>(scans.fragments),
            static_cast<double>(scans.ops)),
      "count", scans.ops);

  const double gets = static_cast<double>(reads.hits + reads.misses);
  add("cache.hit_ratio", ratio(static_cast<double>(reads.hits), gets),
      "ratio", reads.hits + reads.misses);
  add("cache.load_ms", profile.load_ms.median(), "ms", profile.load_ms.size());
  add("cache.evictions_per_op",
      ratio(static_cast<double>(in.evictions), static_cast<double>(reads.ops)),
      "count", reads.ops);
  // Misses per op times the mean decoded fragment size the replays saw.
  add("cache.decoded_mb_per_op",
      ratio(static_cast<double>(reads.misses) *
                profile.fragment_bytes.mean() / kMiB,
            static_cast<double>(reads.ops)),
      "MiB", reads.ops);
  add("cache.working_set_mb", in.working_set_bytes / kMiB, "MiB", 1);

  const OrgKind all_orgs[] = {OrgKind::kCoo,  OrgKind::kLinear,
                              OrgKind::kGcsr, OrgKind::kGcsc,
                              OrgKind::kCsf,  OrgKind::kSortedCoo};
  auto per_kilo = [&](const KernelCost& cost, const char* prefix,
                      const char* unit, std::span<const OrgKind> orgs) {
    for (OrgKind org : orgs) {
      const auto it = cost.find(org);
      const double seconds = it == cost.end() ? 0.0 : it->second.first;
      const std::size_t units = it == cost.end() ? 0 : it->second.second;
      add(std::string(prefix) + org_slug(org),
          ratio(seconds * 1e6, static_cast<double>(units) / 1000.0), unit,
          units);
    }
  };
  per_kilo(profile.scan_box, "format.scan_box_us_per_khit.", "us/khit",
           all_orgs);
  const OrgKind read_orgs[] = {OrgKind::kLinear, OrgKind::kGcsr,
                               OrgKind::kGcsc, OrgKind::kCsf};
  per_kilo(profile.read, "format.read_us_per_kquery.", "us/kquery",
           read_orgs);
  per_kilo(writes.build_by_org, "format.build_us_per_kpt.", "us/kpt",
           all_orgs);

  add("merge.ms", profile.merge_ms.median(), "ms", profile.merge_ms.size());
  add("parallel.spawn_us", profile.spawn_us.median(), "us",
      profile.spawn_us.size());
  add("write.build_sort_ms", writes.build_sort_ms.median(), "ms",
      writes.build_sort_ms.size());
  add("write.build_ms", writes.build_ms.median(), "ms",
      writes.build_ms.size());
  add("write.reorg_ms", writes.reorg_ms.median(), "ms",
      writes.reorg_ms.size());
  add("write.commit_ms", writes.commit_ms.median(), "ms",
      writes.commit_ms.size());
  add("write.others_ms", writes.others_ms.median(), "ms",
      writes.others_ms.size());
  add("write.io_retries", static_cast<double>(writes.io_retries), "count",
      writes.latency_ms.size());

  const double consolidations = static_cast<double>(in.consolidate_s.size());
  add("consolidate.rewritten_mb",
      ratio(in.rewritten_bytes / kMiB, consolidations), "MiB",
      in.consolidate_s.size());
  add("consolidate.mb_per_s",
      ratio(in.rewritten_bytes / kMiB, in.consolidate_s.sum()), "MiB/s",
      in.consolidate_s.size());
  add("consolidate.scan_slowdown", in.scan_slowdown, "ratio",
      in.consolidate_s.size());

  add("read.discover_share", ratio(scans.discover, scans.seconds), "ratio",
      scans.ops);
  add("read.extract_share", ratio(scans.extract, scans.seconds), "ratio",
      scans.ops);
  add("read.query_share", ratio(scans.query, scans.seconds), "ratio",
      scans.ops);
  add("read.merge_share", ratio(scans.merge, scans.seconds), "ratio",
      scans.ops);

  add("trace.overhead_pct", in.overhead_pct, "%", scans.ops);
  add("replay.ops", static_cast<double>(replays), "count", replays);
  add("replay.skipped", static_cast<double>(profile.skipped), "count",
      replays + profile.skipped);
  return out;
}

std::vector<Metric> end_to_end_metrics(const Samples& setup_s,
                                       double bytes_per_point) {
  return {
      {"setup_s", setup_s.median(), "s", setup_s.size()},
      {"bytes_per_point", bytes_per_point, "B/pt", 1},
  };
}

void add_ungated(RunRecord& record, double ops_per_s, const Samples& scan_ms,
                 const Samples& write_ms) {
  record.extras.push_back({"ops_per_s", ops_per_s, "1/s", 1});
  record.extras.push_back({"peak_rss_mb", peak_rss_mb(), "MiB", 1});
  record.extras.push_back(
      {"scan_p50_ms", scan_ms.median(), "ms", scan_ms.size()});
  record.extras.push_back(
      {"write_p50_ms", write_ms.median(), "ms", write_ms.size()});
  for (const auto& tail :
       {tail_metric("scan", scan_ms), tail_metric("write", write_ms)}) {
    if (tail) record.extras.push_back(*tail);
  }
}

void write_trace(const Options& options, const SpanRecorder& spans) {
  const std::filesystem::path path =
      options.work_dir / ("trace_" + options.workload + ".json");
  spans.write_chrome_trace(path);
  std::fprintf(stderr, "[%s] %zu spans written to %s\n",
               options.workload.c_str(), spans.span_count(),
               path.string().c_str());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double decoded_bytes(const Snapshot& snapshot) {
  double bytes = 0.0;
  for (const ManifestEntry& entry : snapshot.manifest().entries()) {
    bytes += static_cast<double>(
        load_open_fragment(entry.path(), DeviceModel::unthrottled())
            ->memory_bytes);
  }
  return bytes;
}

}  // namespace artsparse::e2e
