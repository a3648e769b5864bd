//===- perfbench/src/NoFsync.cpp - fsync interposer for rascd -------------===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Linked into the benchmark's rascd and perfbench executables, where
/// it takes the place of the C library's fsync: rascd (after every
/// durable write) and the proof-log writer (once per log) still call
/// fsync, and the call returns success at once, as it nearly does on
/// tmpfs. The benchmark may write only inside its checkout, so it
/// cannot put the data dir and proof logs on tmpfs, and flushes to the
/// shared disk below the checkout stall for tens to hundreds of
/// milliseconds at random, swamping the cost being measured. The data
/// still goes through write(2) and the page cache.
///
//===----------------------------------------------------------------------===//

extern "C" int fsync(int) { return 0; }
extern "C" int fdatasync(int) { return 0; }
