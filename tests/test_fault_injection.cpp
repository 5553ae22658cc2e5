// Fault-injection coverage of the crash-consistent commit path: the spec
// grammar, the injector mechanics, atomic_write_file's commit/cleanup
// contract, and the full crash matrix — a simulated crash at every syscall
// of a fragment WRITE (open, write, fsync, rename, dir-fsync) must leave
// the store readable, recovered to the last committed fragment set, with no
// .tmp residue and a clean fsck.
#include "storage/fault.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <string>
#include <vector>

#include "check/fsck.hpp"
#include "core/deadline.hpp"
#include "core/error.hpp"
#include "core/timer.hpp"
#include "storage/file_io.hpp"
#include "storage/fragment_store.hpp"
#include "test_support.hpp"

namespace artsparse {
namespace {

namespace fs = std::filesystem;

class FaultInjection : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().reset();
    dir_ = testing::fresh_temp_dir("fault");
  }
  void TearDown() override {
    FaultInjector::instance().reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::vector<fs::path> files_with_extension(const std::string& ext) const {
    std::vector<fs::path> hits;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().extension() == ext) hits.push_back(entry.path());
    }
    return hits;
  }

  fs::path dir_;
};

Bytes payload(std::size_t n) {
  Bytes bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::byte>(i * 17 % 251);
  }
  return bytes;
}

TEST_F(FaultInjection, SpecParsesOpsCountsAndActions) {
  FaultInjector& injector = FaultInjector::instance();
  injector.configure("write:2:EIO,fsync:1:crash");
  EXPECT_TRUE(injector.enabled());
  injector.configure("");
  EXPECT_FALSE(injector.enabled());
}

TEST_F(FaultInjection, MalformedSpecsThrow) {
  FaultInjector& injector = FaultInjector::instance();
  EXPECT_THROW(injector.configure("bogus"), FormatError);
  EXPECT_THROW(injector.configure("write:0:EIO"), FormatError);
  EXPECT_THROW(injector.configure("write:one:EIO"), FormatError);
  EXPECT_THROW(injector.configure("write:1:EFROB"), FormatError);
  EXPECT_THROW(injector.configure("frobnicate:1:EIO"), FormatError);
  injector.reset();
}

TEST_F(FaultInjection, DelaySpecParsesAndMalformedDelaysThrow) {
  FaultInjector& injector = FaultInjector::instance();
  injector.configure("read:2:delay_ms=50");
  EXPECT_TRUE(injector.enabled());
  injector.configure("read:1:delay_ms=50,write:1:ENOSPC,fsync:1:crash");
  EXPECT_TRUE(injector.enabled());

  EXPECT_THROW(injector.configure("read:1:delay_ms="), FormatError);
  EXPECT_THROW(injector.configure("read:1:delay_ms=0"), FormatError);
  EXPECT_THROW(injector.configure("read:1:delay_ms=abc"), FormatError);
  EXPECT_THROW(injector.configure("read:1:delay_ms=50x"), FormatError);
  EXPECT_THROW(injector.configure("read:1:delay_ms=-5"), FormatError);
  injector.reset();
}

TEST_F(FaultInjection, DelayStallsTheCallThenProceeds) {
  // A 30 ms injected delay on the first write: the call is slower than a
  // clean one but still succeeds with intact data.
  FaultInjector::instance().configure("write:1:delay_ms=30");
  const std::string path = (dir_ / "a.bin").string();
  const Bytes data = payload(64);
  WallTimer timer;
  write_file(path, data);
  EXPECT_GE(timer.seconds(), 0.025) << "the injected stall must be felt";
  EXPECT_EQ(read_file(path), data);
}

TEST_F(FaultInjection, ArmDelayMatchesTheSpecForm) {
  FaultInjector::instance().arm_delay(FaultOp::kWrite, 1, 30);
  const std::string path = (dir_ / "a.bin").string();
  WallTimer timer;
  write_file(path, payload(32));
  EXPECT_GE(timer.seconds(), 0.025);
  // Fires once: the second write is not delayed.
  timer.reset();
  write_file(path, payload(32));
  EXPECT_LT(timer.seconds(), 0.025);
}

TEST_F(FaultInjection, DelayIsInterruptedByTheAmbientDeadline) {
  // A 10 s injected stall under a 5 ms budget must end almost
  // immediately with the typed deadline error, not wait out the stall.
  FaultInjector::instance().configure("write:1:delay_ms=10000");
  const ScopedOpContext scope(
      OpContext{Deadline::after_ms(5), CancelToken()});
  WallTimer timer;
  EXPECT_THROW(write_file((dir_ / "a.bin").string(), payload(16)),
               DeadlineExceededError);
  EXPECT_LT(timer.seconds(), 2.0);
}

TEST_F(FaultInjection, DelayIsInterruptedByCancellation) {
  FaultInjector::instance().configure("write:1:delay_ms=10000");
  const CancelToken token = CancelToken::root();
  token.cancel();
  const ScopedOpContext scope(OpContext{Deadline(), token});
  WallTimer timer;
  EXPECT_THROW(write_file((dir_ / "a.bin").string(), payload(16)),
               CancelledError);
  EXPECT_LT(timer.seconds(), 2.0);
}

TEST_F(FaultInjection, FiresAtTheNthSyscallWithTheArmedErrno) {
  FaultInjector::instance().configure("write:2:EIO");
  const std::string path = (dir_ / "a.bin").string();
  write_file(path, payload(64));  // write #1 passes
  try {
    write_file(path, payload(64));  // write #2 faults
    FAIL() << "expected injected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.errno_value(), EIO);  // classified via the field, not text
  }
  EXPECT_EQ(FaultInjector::instance().calls(FaultOp::kWrite), 2u);
}

TEST_F(FaultInjection, CrashActionThrowsTheSentinel) {
  FaultInjector::instance().configure("fsync:1:crash");
  PosixFile file((dir_ / "a.bin").string(),
                 PosixFile::Mode::kWriteTruncate);
  file.write_all(payload(16));
  EXPECT_THROW(file.sync(), CrashFault);
}

TEST_F(FaultInjection, EnvSpecIsHonored) {
  ASSERT_EQ(::setenv("ARTSPARSE_FAULT_SPEC", "open:1:EACCES", 1), 0);
  FaultInjector::instance().configure_from_env();
  ::unsetenv("ARTSPARSE_FAULT_SPEC");
  try {
    write_file((dir_ / "a.bin").string(), payload(16));
    FAIL() << "expected injected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.errno_value(), EACCES);
  }
}

TEST_F(FaultInjection, AtomicWriteCommitsAndLeavesNoStageFile) {
  const std::string path = (dir_ / "frag.asf").string();
  const Bytes data = payload(4096);
  const RetryStats stats = atomic_write_file(path, data);
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(read_file(path), data);
  EXPECT_TRUE(files_with_extension(".tmp").empty());
}

TEST_F(FaultInjection, AtomicWriteCrashLeavesOnlyTheOrphanedStageFile) {
  FaultInjector::instance().configure("fsync:1:crash");
  const std::string path = (dir_ / "frag.asf").string();
  EXPECT_THROW(atomic_write_file(path, payload(4096)), CrashFault);
  EXPECT_FALSE(fs::exists(path));  // never renamed: old state intact
  EXPECT_EQ(files_with_extension(".tmp").size(), 1u);
}

TEST_F(FaultInjection, AtomicWriteErrorCleansUpTheStageFile) {
  FaultInjector::instance().configure("write:1:EACCES");
  const std::string path = (dir_ / "frag.asf").string();
  EXPECT_THROW(atomic_write_file(path, payload(4096)), IoError);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(files_with_extension(".tmp").empty());
}

// The crash matrix. For every syscall point of a fragment WRITE, simulate
// the process dying there, reopen the store, and require: (a) the store
// opens and reads back exactly the committed state, (b) no .tmp residue,
// (c) fsck reports the directory clean at full depth. The commit point is
// the rename — a crash before it recovers to the pre-crash fragment set; a
// crash after it (dir-fsync) recovers with the new fragment fully intact.
TEST_F(FaultInjection, CrashMatrixRecoversTheCommittedStateAtEveryPoint) {
  const Shape shape{16, 16};
  const struct {
    const char* spec;
    bool committed;   ///< fragment B survives the crash
    bool tmp_orphan;  ///< the crash leaves a stage file behind
  } points[] = {
      // A crash at open dies before the stage file exists; one at dirsync
      // dies after the rename already moved it into place. Everything in
      // between orphans the .tmp for the next open to sweep.
      {"open:1:crash", false, false},  {"write:1:crash", false, true},
      {"fsync:1:crash", false, true},  {"rename:1:crash", false, true},
      {"dirsync:1:crash", true, false},
  };
  for (const auto& point : points) {
    SCOPED_TRACE(point.spec);
    const fs::path dir = testing::fresh_temp_dir("crash_matrix");
    CoordBuffer coords_a(2);
    coords_a.append({1, 1});
    coords_a.append({2, 3});
    CoordBuffer coords_b(2);
    coords_b.append({9, 9});

    {
      FragmentStore store(dir, shape);
      store.write(coords_a, std::vector<value_t>{1.0, 2.0}, OrgKind::kGcsr);
      // Arm after the committed write so only fragment B's commit faults.
      FaultInjector::instance().configure(point.spec);
      EXPECT_THROW(
          store.write(coords_b, std::vector<value_t>{9.0}, OrgKind::kCoo),
          CrashFault);
      FaultInjector::instance().reset();
    }

    FragmentStore recovered(dir, shape);
    EXPECT_EQ(recovered.fragment_count(), point.committed ? 2u : 1u);
    for (const auto& entry : fs::directory_iterator(dir)) {
      EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
      EXPECT_NE(entry.path().extension(), ".quarantine") << entry.path();
    }
    EXPECT_EQ(recovered.last_scan().swept_tmp.size(),
              point.tmp_orphan ? 1u : 0u);

    const ReadResult all = recovered.scan_region(Box::whole(shape));
    ASSERT_EQ(all.values.size(), point.committed ? 3u : 2u);
    EXPECT_EQ(all.values[0], 1.0);
    EXPECT_EQ(all.values[1], 2.0);

    const check::StoreReport fsck =
        check::check_store(dir, check::Depth::kFull);
    EXPECT_TRUE(fsck.ok());
    EXPECT_TRUE(fsck.strays.empty());
    fs::remove_all(dir);
  }
}

TEST_F(FaultInjection, OpenSweepsOrphanedTmpFiles) {
  write_file((dir_ / "frag_000042.asf.tmp").string(), payload(100));
  FragmentStore store(dir_, Shape{8, 8});
  ASSERT_EQ(store.last_scan().swept_tmp.size(), 1u);
  EXPECT_TRUE(files_with_extension(".tmp").empty());
  EXPECT_EQ(store.fragment_count(), 0u);
}

TEST_F(FaultInjection, OpenQuarantinesTornFragmentsInsteadOfThrowing) {
  const Shape shape{16, 16};
  {
    FragmentStore store(dir_, shape);
    CoordBuffer coords(2);
    coords.append({3, 4});
    store.write(coords, std::vector<value_t>{7.0}, OrgKind::kLinear);
  }
  // A second fragment torn mid-write: half the bytes of the first one.
  const fs::path victim = dir_ / "frag_000001.asf";
  const Bytes whole = read_file((dir_ / "frag_000000.asf").string());
  write_file(victim.string(),
             Bytes(whole.begin(),
                   whole.begin() + static_cast<std::ptrdiff_t>(
                                       whole.size() / 2)));

  FragmentStore store(dir_, shape);
  EXPECT_EQ(store.fragment_count(), 1u);
  ASSERT_EQ(store.last_scan().quarantined.size(), 1u);
  EXPECT_EQ(store.last_scan().quarantined[0], victim.string());
  EXPECT_FALSE(fs::exists(victim));
  EXPECT_EQ(files_with_extension(".quarantine").size(), 1u);

  // The surviving fragment still answers reads; fsck sees a clean store
  // (the quarantined file is a stray, not a fragment).
  const ReadResult all = store.scan_region(Box::whole(shape));
  ASSERT_EQ(all.values.size(), 1u);
  EXPECT_EQ(all.values[0], 7.0);
  const check::StoreReport fsck =
      check::check_store(dir_, check::Depth::kFull);
  EXPECT_TRUE(fsck.ok());
  EXPECT_EQ(fsck.strays.size(), 1u);
}

TEST_F(FaultInjection, ReopenNeverReusesAQuarantinedName) {
  // Repair never deletes payload bytes: a reopened store must not hand a
  // quarantined fragment's name to a new write, or a second quarantine of
  // that name would replace the first .quarantine file.
  const Shape shape{16, 16};
  CoordBuffer coords(2);
  coords.append({3, 4});
  // Keeps the first 1/`parts` of the file; the two tears differ in length.
  const auto tear = [](const fs::path& path, std::size_t parts) {
    const Bytes whole = read_file(path.string());
    const Bytes torn(whole.begin(),
                     whole.begin() +
                         static_cast<std::ptrdiff_t>(whole.size() / parts));
    write_file(path.string(), torn);
    return torn;
  };
  fs::path first_victim;
  {
    FragmentStore store(dir_, shape);
    store.write(coords, std::vector<value_t>{1.0}, OrgKind::kLinear);
    first_victim =
        store.write(coords, std::vector<value_t>{2.0}, OrgKind::kLinear).path;
  }
  const Bytes first_torn = tear(first_victim, 2);
  const fs::path first_quarantine = first_victim.string() + ".quarantine";

  fs::path second_victim;
  {
    FragmentStore store(dir_, shape);
    ASSERT_EQ(store.last_scan().quarantined.size(), 1u);
    ASSERT_TRUE(fs::exists(first_quarantine));
    second_victim =
        store.write(coords, std::vector<value_t>{3.0}, OrgKind::kLinear).path;
  }
  EXPECT_NE(second_victim.filename(), first_victim.filename());
  tear(second_victim, 3);

  FragmentStore store(dir_, shape);
  EXPECT_EQ(store.last_scan().quarantined.size(), 1u);
  EXPECT_EQ(files_with_extension(".quarantine").size(), 2u);
  EXPECT_TRUE(read_file(first_quarantine.string()) == first_torn);
  EXPECT_EQ(store.fragment_count(), 1u);
}

TEST_F(FaultInjection, QuarantineNeverReplacesAnOlderQuarantine) {
  // A directory that already holds frag_000001.asf.quarantine (left by an
  // older build, or restored by an operator) when frag_000001.asf is torn
  // again: the second quarantine takes the next free name.
  const Shape shape{16, 16};
  CoordBuffer coords(2);
  coords.append({3, 4});
  {
    FragmentStore store(dir_, shape);
    store.write(coords, std::vector<value_t>{1.0}, OrgKind::kLinear);
    store.write(coords, std::vector<value_t>{2.0}, OrgKind::kLinear);
  }
  const fs::path victim = dir_ / "frag_000001.asf";
  const fs::path older = victim.string() + ".quarantine";
  const fs::path newer = victim.string() + ".quarantine.1";
  const Bytes whole = read_file(victim.string());
  const auto half = static_cast<std::ptrdiff_t>(whole.size() / 2);
  const Bytes torn(whole.begin(), whole.begin() + half);
  write_file(victim.string(), torn);
  const Bytes older_bytes = payload(40);
  write_file(older.string(), older_bytes);

  const check::StoreReport report =
      check::repair_store(dir_, check::Depth::kHeader);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0], victim.string());
  EXPECT_FALSE(fs::exists(victim));
  EXPECT_TRUE(read_file(older.string()) == older_bytes);
  EXPECT_TRUE(read_file(newer.string()) == torn);

  FragmentStore store(dir_, shape);
  EXPECT_EQ(store.fragment_count(), 1u);
  EXPECT_EQ(store.last_scan().strays.size(), 2u);
  const fs::path next =
      store.write(coords, std::vector<value_t>{3.0}, OrgKind::kLinear).path;
  EXPECT_EQ(next.filename(), "frag_000002.asf");
  EXPECT_TRUE(read_file(older.string()) == older_bytes);
  EXPECT_TRUE(read_file(newer.string()) == torn);
}

TEST_F(FaultInjection, FailedQuarantineIsReportedNotListed) {
  const Shape shape{16, 16};
  {
    FragmentStore store(dir_, shape);
    CoordBuffer coords(2);
    coords.append({5, 5});
    store.write(coords, std::vector<value_t>{1.5}, OrgKind::kGcsr);
  }
  const fs::path victim = dir_ / "frag_000001.asf";
  write_file(victim.string(), payload(64));  // torn

  FaultInjector::instance().configure("rename:1:EIO");
  const check::StoreReport report =
      check::repair_store(dir_, check::Depth::kHeader);
  EXPECT_TRUE(report.quarantined.empty());
  ASSERT_EQ(report.fragments.size(), 2u);
  const check::FragmentReport& failed = report.fragments[1];
  EXPECT_EQ(failed.path, victim.string());
  ASSERT_FALSE(failed.issues.ok());
  EXPECT_EQ(failed.issues.items().back().rule, "fragment.quarantine");
  EXPECT_TRUE(fs::exists(victim));
  EXPECT_TRUE(files_with_extension(".quarantine").empty());

  // The next repair, without the fault, moves it aside.
  FaultInjector::instance().reset();
  EXPECT_EQ(check::repair_store(dir_, check::Depth::kHeader).quarantined,
            std::vector<std::string>{victim.string()});
  EXPECT_FALSE(fs::exists(victim));
}

TEST_F(FaultInjection, RescanIgnoresAndLogsStrayFiles) {
  const Shape shape{8, 8};
  FragmentStore store(dir_, shape);
  CoordBuffer coords(2);
  coords.append({1, 2});
  store.write(coords, std::vector<value_t>{3.0}, OrgKind::kCoo);
  write_file((dir_ / "notes.txt").string(), payload(10));
  write_file((dir_ / "junk.bin").string(), payload(10));

  const std::uint64_t generation_before = store.generation();
  store.rescan();
  // Even a no-op repair rescan publishes a fresh manifest generation.
  EXPECT_EQ(store.generation(), generation_before + 1);
  EXPECT_EQ(store.fragment_count(), 1u);
  EXPECT_EQ(store.last_scan().strays.size(), 2u);
  EXPECT_TRUE(fs::exists(dir_ / "notes.txt"));  // ignored, not deleted

  const check::StoreReport fsck =
      check::check_store(dir_, check::Depth::kStructure);
  EXPECT_TRUE(fsck.ok());
  EXPECT_EQ(fsck.strays.size(), 2u);
  EXPECT_NE(fsck.to_json().find("notes.txt"), std::string::npos);
}

TEST_F(FaultInjection, RepairStoreSweepsQuarantinesAndReports) {
  const Shape shape{16, 16};
  {
    FragmentStore store(dir_, shape);
    CoordBuffer coords(2);
    coords.append({5, 5});
    store.write(coords, std::vector<value_t>{1.5}, OrgKind::kGcsr);
  }
  write_file((dir_ / "frag_000031.asf.tmp").string(), payload(64));
  write_file((dir_ / "frag_000032.asf").string(), payload(64));  // torn
  write_file((dir_ / "notes.txt").string(), payload(8));

  const check::StoreReport report =
      check::repair_store(dir_, check::Depth::kHeader);
  EXPECT_EQ(report.checked(), 2u);
  EXPECT_EQ(report.swept_tmp.size(), 1u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0], (dir_ / "frag_000032.asf").string());
  EXPECT_EQ(report.strays.size(), 1u);
  EXPECT_FALSE(report.clean());

  // Idempotent: a second pass finds nothing left to fix.
  EXPECT_TRUE(check::repair_store(dir_, check::Depth::kHeader).clean());
  EXPECT_TRUE(check::check_store(dir_, check::Depth::kFull).ok());
}

}  // namespace
}  // namespace artsparse
