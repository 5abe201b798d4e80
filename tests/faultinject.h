// Fault-injection helpers for the robustness test suite.
//
// Three kinds of failure are injected:
//  * library failpoints (src/util/failpoint.h) armed/disarmed via the RAII
//    ScopedFailPoint, so a throwing EXPECT can never leave a point armed
//    for later tests;
//  * stream failures through custom streambufs — FailAfterWriteBuf makes an
//    ostream fail mid-write, ThrowAfterReadBuf makes an istream go bad
//    mid-read — exercising the signature store's torn-file handling;
//  * byte-level corruption via flip_byte, the primitive of the
//    deterministic mutation fuzzer in test_robustness.cpp;
//  * observation noise via apply_noise, a seeded per-test channel that
//    flips response ids and drops records — the model of an imperfect
//    tester datalog driving bench/bench_noise.cpp and the engine tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <streambuf>
#include <string>
#include <vector>

#include "sim/response.h"
#include "util/failpoint.h"

namespace sddict::testing {

// Arms a failpoint for the lifetime of a scope. The destructor disarms
// unconditionally, which is a no-op when the point already fired.
class ScopedFailPoint {
 public:
  explicit ScopedFailPoint(std::string name, std::size_t countdown = 1,
                           failpoint::Kind kind = failpoint::Kind::kRuntimeError)
      : name_(std::move(name)) {
    failpoint::arm(name_, countdown, kind);
  }
  ~ScopedFailPoint() { failpoint::disarm(name_); }

  ScopedFailPoint(const ScopedFailPoint&) = delete;
  ScopedFailPoint& operator=(const ScopedFailPoint&) = delete;

 private:
  std::string name_;
};

// A streambuf that accepts `limit` characters and then reports write
// failure (overflow returns eof), which sets badbit on the owning ostream —
// the behavior of a disk filling up mid-write.
class FailAfterWriteBuf : public std::streambuf {
 public:
  explicit FailAfterWriteBuf(std::size_t limit) : limit_(limit) {}

  const std::string& written() const { return written_; }

 protected:
  int_type overflow(int_type ch) override;

 private:
  std::size_t limit_;
  std::string written_;
};

// A streambuf that serves `data` one character at a time and throws
// std::ios_base::failure after `limit` characters — the behavior of an I/O
// error (NFS timeout, yanked device) mid-read. istream catches the
// exception internally and sets badbit, so readers observe a stream that
// goes bad partway through, not an escaping exception.
class ThrowAfterReadBuf : public std::streambuf {
 public:
  ThrowAfterReadBuf(std::string data, std::size_t limit)
      : data_(std::move(data)), limit_(limit) {}

 protected:
  int_type underflow() override;

 private:
  std::string data_;
  std::size_t limit_;
  std::size_t served_ = 0;
  char ch_ = 0;
};

// The mutation-fuzzer primitive: returns `text` with the byte at `index`
// xor'd with 1 (flips '0' <-> '1', perturbs digits, letters and '\n').
// Works equally on binary images (the signature-store fuzzers flip every
// byte of a packed store through it).
std::string flip_byte(std::string text, std::size_t index);

// The truncation-fuzzer primitive: the first `size` bytes of `bytes` —
// a torn download / partial copy of a binary artifact.
std::string truncate_to(std::string bytes, std::size_t size);

// Deterministic observation-noise channel. Per test, in fixed draw order:
// with probability drop_rate the record is lost (kMissing); otherwise with
// probability flip_rate the value is corrupted — into a different modeled
// response id when the test has one, into kUnknownResponse when the only
// modeled response is fault-free (nothing plausible to flip to). The same
// seed always produces the same noise pattern.
struct NoiseChannel {
  double flip_rate = 0.0;
  double drop_rate = 0.0;
  std::uint64_t seed = 1;
};

std::vector<Observed> apply_noise(const std::vector<ResponseId>& observed,
                                  const ResponseMatrix& rm,
                                  const NoiseChannel& noise);

}  // namespace sddict::testing
