// Regenerates the checked-in seed corpus under fuzz/corpus/: one valid
// fragment per (organization, codec) pairing for fuzz_fragment, and one
// org-byte-prefixed serialized index per organization for fuzz_format.
// Valid inputs seed the fuzzers deep inside the parsers instead of leaving
// them to rediscover the magic/CRC framing byte by byte.
//
//   make_seed_corpus <corpus_dir>     (writes fragment/ and format/ below)
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>

#include "core/box.hpp"
#include "core/coords.hpp"
#include "core/shape.hpp"
#include "formats/format.hpp"
#include "formats/registry.hpp"
#include "storage/fragment.hpp"

namespace {

using namespace artsparse;

/// The paper's Fig. 1 example: five points in a 3x3x3 tensor.
CoordBuffer example_coords() {
  CoordBuffer coords(3);
  coords.append({0, 0, 0});
  coords.append({0, 1, 2});
  coords.append({1, 0, 1});
  coords.append({2, 1, 0});
  coords.append({2, 2, 2});
  return coords;
}

/// The values of example_coords().
constexpr value_t kValues[] = {1.0, 2.0, 3.0, 4.0, 5.0};

void write_bytes(const std::filesystem::path& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

/// Encodes `coords` built as `org` through the write path's encoder.
Bytes fragment_bytes(OrgKind org, CodecKind codec, const CoordBuffer& coords,
                     std::span<const value_t> values) {
  const Shape shape({3, 3, 3});
  auto format = make_format(org);
  format->build(coords, shape);
  FragmentInfo info;
  info.org = org;
  info.codec = codec;
  info.shape = shape;
  if (!coords.empty()) info.bbox = Box::bounding(coords);
  info.point_count = coords.size();
  return encode_fragment(info, *format, values);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_seed_corpus <corpus_dir>\n");
    return 2;
  }
  const std::filesystem::path root(argv[1]);
  const auto fragment_dir = root / "fragment";
  const auto format_dir = root / "format";
  std::filesystem::create_directories(fragment_dir);
  std::filesystem::create_directories(format_dir);

  int written = 0;
  for (OrgKind org : all_org_kinds()) {
    const std::string name = to_string(org);
    for (CodecKind codec : {CodecKind::kIdentity, CodecKind::kDeltaVarint,
                            CodecKind::kRle}) {
      write_bytes(fragment_dir /
                      (name + "_" + to_string(codec) + ".asf"),
                  fragment_bytes(org, codec, example_coords(), kValues));
      ++written;
    }
    // fuzz_format convention: first byte selects the organization.
    auto format = make_format(org);
    format->build(example_coords(), Shape({3, 3, 3}));
    Bytes seed{static_cast<std::byte>(org)};
    const Bytes index = serialize_format(*format);
    seed.insert(seed.end(), index.begin(), index.end());
    write_bytes(format_dir / (name + ".bin"), seed);
    ++written;
  }
  // A zero-point COO fragment, as a write of an empty batch stores it,
  // exercises the zero-point paths of the header, codec and format load.
  const Bytes empty =
      fragment_bytes(OrgKind::kCoo, CodecKind::kIdentity, CoordBuffer(3), {});
  write_bytes(fragment_dir / "empty.asf", empty);
  ++written;

  std::printf("wrote %d seeds under %s\n", written, root.string().c_str());
  return 0;
}
