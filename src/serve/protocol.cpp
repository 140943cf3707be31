#include "serve/protocol.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "store/format.hpp"

namespace ind::serve {

namespace {

/// Reads exactly n bytes. Returns the number actually read: n on success, 0
/// on clean EOF before the first byte, a short count when the peer vanished
/// mid-buffer. Throws on hard I/O errors.
std::size_t read_exact(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) return got;  // EOF
    if (errno == EINTR) continue;
    // A reset peer is a dead peer, not an internal error: report it exactly
    // like an EOF at this offset so the caller sees a clean/torn close.
    if (errno == ECONNRESET || errno == ETIMEDOUT) return got;
    // SO_RCVTIMEO expiry on a blocking socket (clients arm it to bound
    // slow-loris servers/proxies): structured connection-loss, retryable.
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      throw ProtocolError(ErrorCode::ConnectionLost,
                          "serve: read timed out (SO_RCVTIMEO)");
    throw ProtocolError(ErrorCode::Internal,
                        std::string("serve: read failed: ") +
                            std::strerror(errno));
  }
  return got;
}

/// Sends every byte of `iov[0..iovcnt)` as one message per sendmsg, so a
/// frame's header never leaves in a segment of its own (over TCP, Nagle plus
/// the peer's delayed ACK would hold the payload back ~40 ms). Partial sends
/// resume where the kernel stopped.
bool write_all(int fd, iovec* iov, std::size_t iovcnt) {
  while (iovcnt > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iovcnt;
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not SIGPIPE.
    const ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (r >= 0) {
      auto sent = static_cast<std::size_t>(r);
      while (iovcnt > 0 && sent >= iov->iov_len) {
        sent -= iov->iov_len;
        ++iov;
        --iovcnt;
      }
      if (iovcnt > 0) {
        iov->iov_base = static_cast<std::uint8_t*>(iov->iov_base) + sent;
        iov->iov_len -= sent;
      }
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EPIPE || errno == ECONNRESET) return false;
    // SO_SNDTIMEO expiry on a blocking socket: the peer stopped reading for
    // the whole timeout window. Treat it like a vanished peer — the server
    // must never let one wedged client block the executor indefinitely.
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ETIMEDOUT)
      return false;
    throw ProtocolError(ErrorCode::Internal,
                        std::string("serve: write failed: ") +
                            std::strerror(errno));
  }
  return true;
}

}  // namespace

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::None: return "none";
    case ErrorCode::BadMagic: return "bad_magic";
    case ErrorCode::VersionMismatch: return "version_mismatch";
    case ErrorCode::MalformedFrame: return "malformed_frame";
    case ErrorCode::FrameTooLarge: return "frame_too_large";
    case ErrorCode::BadRequest: return "bad_request";
    case ErrorCode::DeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::Internal: return "internal";
    case ErrorCode::QueueFull: return "queue_full";
    case ErrorCode::ShuttingDown: return "shutting_down";
    case ErrorCode::ConnectionLost: return "connection_lost";
    case ErrorCode::WorkerCrashed: return "worker_crashed";
    case ErrorCode::PoisonedRequest: return "poisoned_request";
  }
  return "?";
}

std::optional<Frame> read_frame(int fd, std::uint32_t max_payload) {
  std::uint8_t header[kFrameHeaderBytes];
  const std::size_t got = read_exact(fd, header, sizeof header);
  if (got == 0) return std::nullopt;  // clean EOF between frames
  if (got < sizeof header)
    throw ProtocolError(ErrorCode::MalformedFrame,
                        "serve: connection closed inside a frame header");

  std::uint32_t len;
  std::memcpy(&len, header, sizeof len);
  Frame frame;
  frame.type = static_cast<FrameType>(header[4]);
  if (len > max_payload)
    throw ProtocolError(ErrorCode::FrameTooLarge,
                        "serve: frame payload of " + std::to_string(len) +
                            " bytes exceeds the " +
                            std::to_string(max_payload) + "-byte cap");
  frame.payload.resize(len);
  if (len != 0 && read_exact(fd, frame.payload.data(), len) < len)
    throw ProtocolError(ErrorCode::MalformedFrame,
                        "serve: connection closed inside a frame payload");
  return frame;
}

bool write_frame(int fd, const Frame& frame) {
  std::uint8_t header[kFrameHeaderBytes];
  const auto len = static_cast<std::uint32_t>(frame.payload.size());
  std::memcpy(header, &len, sizeof len);
  header[4] = static_cast<std::uint8_t>(frame.type);
  iovec iov[2] = {
      {header, sizeof header},
      {const_cast<std::uint8_t*>(frame.payload.data()), frame.payload.size()},
  };
  return write_all(fd, iov, frame.payload.empty() ? 1 : 2);
}

Frame make_hello() {
  Frame f;
  f.type = FrameType::Hello;
  store::ByteWriter w;
  w.raw(kHelloMagic, sizeof kHelloMagic);
  w.u32(kProtocolVersion);
  w.u32(0);  // flags, reserved
  f.payload = w.take();
  return f;
}

ErrorCode check_hello(const std::vector<std::uint8_t>& payload,
                      std::uint32_t* client_version) {
  if (payload.size() < sizeof kHelloMagic + 2 * sizeof(std::uint32_t))
    return ErrorCode::MalformedFrame;
  if (std::memcmp(payload.data(), kHelloMagic, sizeof kHelloMagic) != 0)
    return ErrorCode::BadMagic;
  std::uint32_t version;
  std::memcpy(&version, payload.data() + sizeof kHelloMagic, sizeof version);
  if (client_version != nullptr) *client_version = version;
  if (version != kProtocolVersion) return ErrorCode::VersionMismatch;
  return ErrorCode::None;
}

Frame make_hello_ack(const std::string& server_id) {
  Frame f;
  f.type = FrameType::HelloAck;
  store::ByteWriter w;
  w.u32(kProtocolVersion);
  w.str(server_id);
  f.payload = w.take();
  return f;
}

namespace {
Frame make_status(FrameType type, std::uint64_t request_id, ErrorCode code,
                  const std::string& detail) {
  Frame f;
  f.type = type;
  store::ByteWriter w;
  w.u64(request_id);
  w.u32(static_cast<std::uint32_t>(code));
  w.str(detail);
  f.payload = w.take();
  return f;
}
}  // namespace

Frame make_error(std::uint64_t request_id, ErrorCode code,
                 const std::string& detail) {
  return make_status(FrameType::Error, request_id, code, detail);
}

Frame make_busy(std::uint64_t request_id, ErrorCode code,
                const std::string& detail) {
  return make_status(FrameType::Busy, request_id, code, detail);
}

ErrorInfo decode_error(const std::vector<std::uint8_t>& payload) {
  store::ByteReader r(payload);
  ErrorInfo info;
  info.request_id = r.u64();
  info.code = static_cast<ErrorCode>(r.u32());
  info.detail = r.str();
  return info;
}

}  // namespace ind::serve
