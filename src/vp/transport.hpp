// vp::Transport — the message-delivery boundary under Machine::send.
//
// The thesis's runtime ran on a real multicomputer (Symult 2010 under the
// Cosmic Environment): processors were OS-level nodes and every message
// crossed a physical wire.  Our reproduction grew up inside one OS process
// — Machine::send posted straight into the destination Mailbox.  This
// interface abstracts that final hop so the same Machine, mailboxes,
// collectives, fault injector, and flow tracing run over two substrates:
//
//  * DirectTransport — the original in-process direct post (the default;
//    zero behavior change, zero added cost beyond one virtual call);
//  * UdsTransport (transport_uds.cpp) — one OS process per virtual
//    processor, full-mesh Unix-domain stream sockets, vp::Payload as the
//    serialization boundary.  Selected by TDP_TRANSPORT=uds with
//    TDP_RANK/TDP_SIZE/TDP_UDS_DIR describing this process's place in the
//    launched set (tools/tdp_launch sets all four).
//
// Layering: Machine::send stamps the causal flow id and applies the fault
// plan BEFORE handing the message to the transport — an injected drop or
// delay happens at the send boundary, never on the wire — so the fault
// model is identical across substrates.  On the receive side the remote
// backend posts deserialized messages through the same Mailbox::post path
// local sends use, so typed selective receive, poison fast-fail, receive
// deadlines, and trace recovery are substrate-blind.
//
// Wire framing (DESIGN.md §13): every message crosses the socket as a
// fixed 56-byte little-endian header followed by the payload bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "vp/mailbox.hpp"

namespace tdp::vp {

/// Delivery boundary under Machine::send.  Implementations are
/// constructed once per Machine and outlive every send; deliver() may be
/// called from any thread (senders are concurrent).
class Transport {
 public:
  /// Posts one message into a local mailbox: the in-process leg both
  /// backends share (Machine binds it to Mailbox::post + delivery
  /// accounting).
  using LocalDeliver = std::function<void(int dst, Message&&)>;

  virtual ~Transport() = default;

  /// Implementation name for diagnostics ("direct", "uds").
  virtual const char* name() const = 0;

  /// True when some destinations live in other OS processes.
  virtual bool remote() const { return false; }

  /// True when processor `p`'s mailbox lives in this OS process.
  virtual bool hosts(int /*p*/) const { return true; }

  /// Delivers `m` toward processor `dst` — locally for the direct backend
  /// (and for a remote backend's own rank), framed onto the peer socket
  /// otherwise.  `dst` has been validated by Machine::send.
  virtual void deliver(int dst, Message&& m) = 0;

  /// One-line peer-health diagnostic, empty when all peers are healthy
  /// (always empty for the direct backend).  SpmdContext appends it to
  /// ReceiveTimeout errors so a deadline caused by a dead rank names the
  /// dead rank instead of reading like an ordinary lost message.
  virtual std::string diagnose() const { return {}; }

  /// Stops background reader/acceptor threads and closes sockets.  Called
  /// by ~Machine after the injector drain and BEFORE mailboxes close, so
  /// no reader can post into a destroyed mailbox.  Idempotent.
  virtual void shutdown() {}
};

/// The in-process direct-post backend (the pre-transport behavior).
std::unique_ptr<Transport> make_direct_transport(Transport::LocalDeliver d);

/// Reads TDP_TRANSPORT and builds the backend for a Machine of `nprocs`
/// processors:
///  * unset/"" / "direct" -> DirectTransport;
///  * "uds" -> UdsTransport, provided TDP_RANK/TDP_SIZE/TDP_UDS_DIR are
///    set and TDP_SIZE == nprocs; on any mismatch it warns loudly and
///    falls back to DirectTransport (a mis-launched process degrades to
///    the single-process behavior instead of hanging);
///  * anything else -> warn, DirectTransport.
std::unique_ptr<Transport> make_transport_from_env(
    int nprocs, Transport::LocalDeliver deliver);

namespace wire {

/// Frame magic "TDPM" (little-endian) — catches desynchronized streams
/// and foreign writers at the first frame.
inline constexpr std::uint32_t kFrameMagic = 0x4D504454u;
/// Connection-hello magic "TDPH"; the 8-byte hello (magic + sender rank)
/// is the first thing written on every connection, telling the acceptor
/// which rank the inbound stream belongs to.
inline constexpr std::uint32_t kHelloMagic = 0x48504454u;

inline constexpr std::size_t kHeaderBytes = 56;
inline constexpr std::size_t kHelloBytes = 8;

/// The decoded wire header: every Message envelope field that must
/// survive the process boundary, plus a per-connection frame sequence
/// number (desync detection) and the payload length.
struct FrameHeader {
  std::uint32_t cls = 0;           ///< MessageClass as u32
  std::uint64_t comm = 0;
  std::int32_t tag = 0;
  std::int32_t src = 0;
  std::int32_t poison_origin = -1;
  std::uint64_t flow = 0;
  std::uint64_t seq = 0;           ///< per-connection frame counter
  std::uint64_t payload_bytes = 0;
};

/// Serializes `h` into the fixed little-endian layout (DESIGN.md §13).
void encode_header(const FrameHeader& h, std::byte out[kHeaderBytes]);

/// Deserializes a header; false when the magic does not match.
bool decode_header(const std::byte in[kHeaderBytes], FrameHeader& h);

/// The header for one outbound message (payload length taken from
/// m.payload; `seq` is the connection's running frame counter).
FrameHeader header_for(const Message& m, std::uint64_t seq);

/// Rebuilds the Message a header + payload crossed the wire as.  The
/// local-only envelope fields (enq_ns) are left zero: Mailbox::post
/// restamps them on the receiving side.
Message to_message(const FrameHeader& h, Payload payload);

void encode_hello(int rank, std::byte out[kHelloBytes]);
bool decode_hello(const std::byte in[kHelloBytes], int& rank_out);

}  // namespace wire

}  // namespace tdp::vp
