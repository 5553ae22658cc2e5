#include "check/validate.hpp"

#include <algorithm>
#include <cstdint>

#include "core/box.hpp"
#include "core/coords.hpp"
#include "core/error.hpp"
#include "formats/format.hpp"
#include "storage/fragment_cache.hpp"
#include "storage/serializer.hpp"

namespace artsparse::check {

Depth depth_from_string(const std::string& name) {
  if (name == "header") return Depth::kHeader;
  if (name == "structure") return Depth::kStructure;
  if (name == "full") return Depth::kFull;
  throw FormatError("unknown check depth '" + name +
                    "' (expected header, structure, or full)");
}

std::string to_string(Depth depth) {
  switch (depth) {
    case Depth::kHeader:
      return "header";
    case Depth::kStructure:
      return "structure";
    case Depth::kFull:
      return "full";
  }
  return "unknown";
}

namespace {

/// kHeader: checksum and self-consistent header fields.
bool check_header(std::span<const std::byte> data, FragmentInfo& info,
                  Issues& issues) {
  if (data.size() <= sizeof(std::uint32_t)) {
    issues.add("fragment.size", "file holds " + std::to_string(data.size()) +
                                    " bytes, too small for a fragment");
    return false;
  }
  const std::size_t body = data.size() - sizeof(std::uint32_t);
  BufferReader crc_reader(data.subspan(body));
  if (crc32(data.subspan(0, body)) != crc_reader.get_u32()) {
    issues.add("fragment.checksum", "stored crc32 does not match contents");
    return false;
  }
  try {
    info = decode_fragment_info(data);
  } catch (const Error& e) {
    issues.add("fragment.header", e.what());
    return false;
  }
  bool ok = true;
  if (!info.bbox.empty()) {
    if (info.bbox.rank() != info.shape.rank()) {
      issues.add("fragment.bbox.rank",
                 "bounding box rank " + std::to_string(info.bbox.rank()) +
                     " != shape rank " + std::to_string(info.shape.rank()));
      ok = false;
    } else {
      for (std::size_t dim = 0; dim < info.bbox.rank(); ++dim) {
        if (info.bbox.hi(dim) >= info.shape.extent(dim)) {
          issues.add("fragment.bbox.in_shape",
                     "bounding box dim " + std::to_string(dim) +
                         " reaches " + std::to_string(info.bbox.hi(dim)) +
                         ", past extent " +
                         std::to_string(info.shape.extent(dim)));
          ok = false;
          break;
        }
      }
    }
  }
  // One value per stored point: the write path reorganizes values with the
  // build map, which is a permutation of the points.
  if (info.value_count != info.point_count) {
    issues.add("fragment.counts",
               "fragment stores " + std::to_string(info.value_count) +
                   " values for " + std::to_string(info.point_count) +
                   " points");
    ok = false;
  }
  if (info.point_count > 0 && info.bbox.empty()) {
    issues.add("fragment.bbox.missing",
               "non-empty fragment has no bounding box");
    ok = false;
  }
  return ok;
}

/// kFull: cross-checks between the opened index, the header, and the
/// values. O(n * d) — scans every stored point.
void check_full(const OpenFragment& open, const FragmentInfo& info,
                Issues& issues) {
  CoordBuffer points(std::max<std::size_t>(open.shape.rank(), 1));
  std::vector<std::size_t> slots;
  try {
    open.format->scan_box(Box::whole(open.shape), points, slots);
  } catch (const Error& e) {
    issues.add("fragment.scan", e.what());
    return;
  }
  if (points.size() != open.point_count) {
    issues.add("fragment.scan.count",
               "index enumerates " + std::to_string(points.size()) +
                   " points but the header records " +
                   std::to_string(open.point_count));
    return;
  }
  // The slots must cover the value buffer exactly once — a broken build map
  // (or a forged index) silently pairs points with the wrong values.
  std::vector<bool> seen(open.values.size(), false);
  for (std::size_t slot : slots) {
    if (slot >= seen.size() || seen[slot]) {
      issues.add("fragment.slots.permutation",
                 "value slot " + std::to_string(slot) +
                     " is out of range or assigned twice");
      return;
    }
    seen[slot] = true;
  }
  if (!points.empty()) {
    const Box bbox = Box::bounding(points);
    if (!(bbox == open.bbox)) {
      issues.add("fragment.bbox.tight",
                 "recomputed bounding box " + bbox.to_string() +
                     " != header box " + open.bbox.to_string());
    }
  }
  if (!open.values.empty()) {
    const auto [min_it, max_it] =
        std::minmax_element(open.values.begin(), open.values.end());
    if (*min_it != info.value_min || *max_it != info.value_max) {
      issues.add("fragment.stats",
                 "header value range does not match stored values");
    }
  }
}

}  // namespace

FragmentInfo check_fragment_bytes(std::span<const std::byte> data,
                                  Depth depth, Issues& issues) {
  FragmentInfo info;
  if (!check_header(data, info, issues) || depth == Depth::kHeader) {
    return info;
  }

  // The read path's own open: the framing is view_fragment's, the index
  // (codec and format) open_fragment's. check_header() verified the
  // checksum, so the body is CRC'd once.
  FragmentView view;
  try {
    view = view_fragment(data, Checksum::kVerified);
  } catch (const Error& e) {
    issues.add("fragment.decode", e.what());
    return info;
  }
  OpenFragment open;
  try {
    open = open_fragment(view);
  } catch (const Error& e) {
    issues.add("format.load", e.what());
    return info;
  }
  const SparseFormat& format = *open.format;
  if (format.point_count() != open.point_count) {
    issues.add("fragment.point_count",
               "index stores " + std::to_string(format.point_count()) +
                   " points but the header records " +
                   std::to_string(open.point_count));
  }
  if (!(format.tensor_shape() == open.shape)) {
    issues.add("fragment.shape",
               "index shape " + format.tensor_shape().to_string() +
                   " != header shape " + open.shape.to_string());
  }
  format.check_invariants(issues);

  if (depth == Depth::kFull && issues.ok()) {
    check_full(open, view.info, issues);
  }
  return info;
}

}  // namespace artsparse::check
