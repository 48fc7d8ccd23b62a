// Transport abstraction of the campaign supervisor's frame protocol.
//
// The multi-process supervisor originally spoke its length-prefixed frame
// protocol (util/subprocess.hpp) over raw pipe fds. Multi-host campaigns
// need the same frames over TCP sockets — and the robustness treatment the
// filesystem layer already has (util/fsio.hpp) needs a network twin: every
// failure mode of a real link must be injectable in a unit test, without a
// real network. This header holds the seam that makes both possible:
//
//  * ByteChannel            the minimal transport interface: read/write a
//                           byte stream, expose a pollable fd, shut down.
//                           FrameReader and write_frame (subprocess.hpp)
//                           operate on it, so the frame protocol is
//                           transport-agnostic by construction;
//  * FdChannel              the pipe/plain-fd implementation — exactly the
//                           behaviour the fork/pipe supervisor always had;
//  * FaultInjectingChannel  the network twin of FaultInjectingFsIo: counts
//                           every read/write and makes a scripted one (and
//                           optionally all that follow) fail in a chosen
//                           way — errno, short read, short write, stall
//                           (endless EAGAIN, the silent-peer case), or a
//                           dropped connection (EOF on read, EPIPE on
//                           write). Scripted via ChannelFaultPlan, the
//                           byte-stream analogue of fsio::FaultPlan.
//
// EINTR contract: concrete channels restart EINTR internally, but a channel
// is allowed to surface it (the injecting channel does so deliberately) —
// every caller of ByteChannel::read/write in this codebase must treat
// err == EINTR as "retry", never as a dead peer. tests/util_test.cpp pins
// that with an EINTR-injection regression test.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>

namespace motsim::netio {

/// A bidirectional byte stream (pipe pair, TCP socket, or a test shim).
class ByteChannel {
 public:
  virtual ~ByteChannel() = default;

  /// Reads up to `count` bytes into `buf`. Returns the (positive) byte
  /// count, 0 on orderly EOF, or -1 with `err` set (EAGAIN/EWOULDBLOCK on a
  /// nonblocking channel with nothing buffered; EINTR means retry).
  virtual ssize_t read(void* buf, std::size_t count, int& err) = 0;

  /// Writes up to `count` bytes from `buf`. Returns the (positive) number
  /// of bytes consumed, 0 for a zero-byte write (no progress, no errno), or
  /// -1 with `err` set (EPIPE/ECONNRESET when the peer is gone; EINTR means
  /// retry). Partial writes are normal; callers loop.
  virtual ssize_t write(const void* buf, std::size_t count, int& err) = 0;

  /// Descriptor to poll() for readability, or -1 when the channel cannot be
  /// polled (already closed).
  virtual int poll_fd() const = 0;

  /// Releases the underlying transport. Idempotent; after close(), reads
  /// report EOF and writes fail with EBADF.
  virtual void close() = 0;
};

/// ByteChannel over one fd (socketpair end) or a read-fd/write-fd pair (a
/// pipe pair, where the two directions are distinct descriptors). Restarts
/// EINTR internally. With `own` (the default) close() and the destructor
/// ::close the descriptors; a borrowed channel (own = false) only forgets
/// them — that is how a forked worker wraps the pipe ends it inherited.
/// Pass -1 for a direction the channel does not have.
class FdChannel final : public ByteChannel {
 public:
  /// One fd for both directions (socketpair, socket).
  explicit FdChannel(int fd, bool own = true)
      : read_fd_(fd), write_fd_(fd), own_(own) {}
  /// Distinct read/write descriptors (pipe pair).
  FdChannel(int read_fd, int write_fd, bool own = true)
      : read_fd_(read_fd), write_fd_(write_fd), own_(own) {}
  ~FdChannel() override { close(); }
  FdChannel(const FdChannel&) = delete;
  FdChannel& operator=(const FdChannel&) = delete;

  ssize_t read(void* buf, std::size_t count, int& err) override;
  ssize_t write(const void* buf, std::size_t count, int& err) override;
  int poll_fd() const override { return read_fd_; }
  void close() override;

 private:
  int read_fd_;
  int write_fd_;
  bool own_;
};

/// What an injected fault does to the channel operation it hits.
enum class ChannelFaultKind : std::uint8_t {
  None,
  Errno,       ///< the op fails with ChannelFaultPlan::err
  ShortRead,   ///< a read delivers at most half the requested bytes
  ShortWrite,  ///< a write consumes only half the requested bytes
  Stall,       ///< reads/writes report EAGAIN: the link is silently stuck
  Drop,        ///< connection dropped: reads hit EOF, writes hit EPIPE —
               ///< this op and every later one (a dropped link stays dropped)
};

/// The byte-stream analogue of fsio::FaultPlan: which operation (1-based,
/// reads and writes counted together in call order) starts failing, how,
/// and for how many consecutive operations.
struct ChannelFaultPlan {
  std::uint64_t fail_at_op = 0;  ///< 0 = never fire
  ChannelFaultKind kind = ChannelFaultKind::None;
  int err = 104;  // ECONNRESET
  /// Consecutive ops affected from fail_at_op on (Drop ignores this: a
  /// dropped connection never comes back). UINT64_MAX = persistent.
  std::uint64_t fail_count = 1;
};

/// Wraps another ByteChannel and applies a ChannelFaultPlan — every network
/// failure mode, unit-testable with zero real sockets (wrap an FdChannel
/// over a socketpair) and zero timing dependence.
class FaultInjectingChannel final : public ByteChannel {
 public:
  /// `base` is borrowed and must outlive this channel.
  FaultInjectingChannel(const ChannelFaultPlan& plan, ByteChannel& base)
      : plan_(plan), base_(&base) {}

  ssize_t read(void* buf, std::size_t count, int& err) override;
  ssize_t write(const void* buf, std::size_t count, int& err) override;
  int poll_fd() const override { return base_->poll_fd(); }
  void close() override { base_->close(); }

  /// Operations observed so far — run once fault-free to size a plan sweep.
  std::uint64_t ops() const { return op_; }
  bool dropped() const { return dropped_; }

 private:
  /// Advances the op counter and returns the fault to apply to this op.
  ChannelFaultKind arm();

  ChannelFaultPlan plan_;
  ByteChannel* base_;
  std::uint64_t op_ = 0;
  std::uint64_t fired_ = 0;
  bool dropped_ = false;
};

}  // namespace motsim::netio
