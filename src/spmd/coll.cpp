#include "spmd/coll.hpp"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spmd/context.hpp"
#include "vp/mailbox.hpp"

namespace tdp::spmd::coll {

namespace {

// -1 = no force() override; else the Algo value.
std::atomic<int> g_forced{-1};

Algo env_algorithm() {
  static const Algo parsed = [] {
    const char* env = std::getenv("TDP_COLL");
    if (env == nullptr || env[0] == '\0') return Algo::Tree;
    bool known = false;
    const Algo a = algo_from_name(env, known);
    if (!known) {
      // Mirror the guarded env parsing of util::env_int: a typo
      // must be reported, never silently remapped.
      std::fprintf(stderr,
                   "tdp::spmd: ignoring unknown TDP_COLL \"%s\"; valid "
                   "values are \"linear\" and \"tree\" (using tree)\n",
                   env);
    }
    return a;
  }();
  return parsed;
}

obs::ShardedCounter& bytes_copied_counter() {
  static obs::ShardedCounter& c =
      obs::Registry::instance().counter("comm.bytes_copied");
  return c;
}

int actual_index(int rel, int root, int p) { return (rel + root) % p; }

[[noreturn]] void throw_size_mismatch(const char* what, std::size_t got,
                                      std::size_t want) {
  throw std::runtime_error(std::string(what) + ": received " +
                           std::to_string(got) + " bytes, expected " +
                           std::to_string(want));
}

// --- Broadcast -------------------------------------------------------------

// Binomial tree over relative ranks rel = (index - root + P) % P: each copy
// receives once from rel - mask (the high set bit of rel) and forwards the
// *same* refcounted payload to rel + mask for each lower mask.  Depth
// ceil(log2 P); zero payload copies.
//
// Failure propagation: a copy whose receive from its parent times out (or
// arrives as poison) still has children expecting a forward from it.  It
// flushes a poison marker down to each of them — naming the originally
// stalled copy — before rethrowing, so its whole subtree fails fast blaming
// the right peer instead of timing out a level at a time blaming each
// forwarder in turn.
vp::Payload tree_broadcast_payload(SpmdContext& ctx, vp::Payload pay,
                                   int root) {
  const int p = ctx.nprocs();
  const int rel = (ctx.index() - root + p) % p;
  int mask = 1;
  int poison_origin = -1;
  std::exception_ptr failure;
  while (mask < p) {
    if ((rel & mask) != 0) {
      const int parent = actual_index(rel - mask, root, p);
      try {
        pay = ctx.recv_payload(parent, SpmdContext::kBcastTag);
      } catch (const vp::ReceiveTimeout&) {
        poison_origin = parent;  // the parent is the stalled peer, as far
        failure = std::current_exception();  // as this copy can observe
      } catch (const Poisoned& e) {
        poison_origin = e.origin;  // relay the original culprit unchanged
        failure = std::current_exception();
      }
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < p) {
      const int child = actual_index(rel + mask, root, p);
      if (poison_origin >= 0) {
        ctx.send_poison(child, SpmdContext::kBcastTag, poison_origin);
      } else {
        ctx.send_payload(child, SpmdContext::kBcastTag, pay);
      }
    }
    mask >>= 1;
  }
  if (failure) std::rethrow_exception(failure);
  return pay;
}

vp::Payload linear_broadcast_payload(SpmdContext& ctx, vp::Payload pay,
                                     int root) {
  if (ctx.index() == root) {
    for (int i = 0; i < ctx.nprocs(); ++i) {
      if (i == root) continue;
      ctx.send_payload(i, SpmdContext::kBcastTag, pay);
    }
    return pay;
  }
  return ctx.recv_payload(root, SpmdContext::kBcastTag);
}

// Typed-buffer front end for the binomial tree: one substrate copy at the
// root (the caller may mutate its span after the call), everyone downstream
// shares that buffer and delivers into their own span.
void tree_broadcast_bytes(SpmdContext& ctx, std::span<std::byte> data,
                          int root) {
  vp::Payload pay;
  if (ctx.index() == root) pay = vp::Payload::copy_of(data);
  pay = tree_broadcast_payload(ctx, std::move(pay), root);
  if (ctx.index() != root) {
    if (pay.size() != data.size()) {
      throw_size_mismatch("coll::broadcast", pay.size(), data.size());
    }
    if (!data.empty()) {
      std::memcpy(data.data(), pay.data(), data.size());
      vp::note_bytes_delivered(data.size());
    }
  }
}

// Star fan-out of one shared payload: the root wraps its buffer once and
// posts the same refcounted handle to every peer.  Versus the binomial
// tree this keeps the linear schedule (receivers have no forwarding duty
// that would stall their next pipelined operation) while still shedding
// the P-1 root copies — it is the sharing, not the topology, that removes
// them.  Used by the allreduce long path, where back-to-back rounds
// overlap and forwarding chains cost more than they save.
void star_broadcast_shared(SpmdContext& ctx, std::span<std::byte> data,
                           int root) {
  if (ctx.index() == root) {
    vp::Payload pay = vp::Payload::copy_of(data);
    for (int i = 0; i < ctx.nprocs(); ++i) {
      if (i == root) continue;
      ctx.send_payload(i, SpmdContext::kBcastTag, pay);
    }
    return;
  }
  vp::Payload pay = ctx.recv_payload(root, SpmdContext::kBcastTag);
  if (pay.size() != data.size()) {
    throw_size_mismatch("coll::broadcast", pay.size(), data.size());
  }
  if (!data.empty()) {
    std::memcpy(data.data(), pay.data(), data.size());
    vp::note_bytes_delivered(data.size());
  }
}

// The original root-sequential byte broadcast, kept byte-for-byte as the A/B
// baseline: one payload copy per destination at the root.
void linear_broadcast(SpmdContext& ctx, std::span<std::byte> data, int root) {
  if (ctx.index() == root) {
    for (int i = 0; i < ctx.nprocs(); ++i) {
      if (i == root) continue;
      ctx.send_bytes(i, SpmdContext::kBcastTag, data);
    }
  } else {
    ctx.recv_bytes_into(root, SpmdContext::kBcastTag, data);
  }
}

// --- Reduce ----------------------------------------------------------------

// Binomial combining tree (the broadcast tree reversed).  Children always
// carry higher relative ranks than their parent, so combine(incoming, acc,
// /*incoming_first=*/false) keeps operands in relative-rank order; with
// root == 0 that is group-index order exactly.  Non-root copies accumulate
// into a staging buffer so their caller-visible spans stay unchanged (the
// linear variant never touched them either); leaves never combine and send
// their span directly.
//
// Failure propagation mirrors the broadcast, but upward: a copy whose child
// receive times out (or arrives as poison) still owes its parent a
// contribution, so it flushes a poison marker up to the parent — naming the
// originally stalled copy — before rethrowing.  The parent of rel is
// rel & (rel - 1) (clear the lowest set bit); the root has no parent and
// just rethrows.
void tree_reduce(SpmdContext& ctx, std::span<std::byte> data, int root,
                 const ByteCombine& combine) {
  const int p = ctx.nprocs();
  const int rel = (ctx.index() - root + p) % p;
  std::vector<std::byte> staging;
  std::span<std::byte> acc = data;
  int mask = 1;
  while (mask < p) {
    if ((rel & mask) != 0) {
      ctx.send_bytes(actual_index(rel - mask, root, p),
                     SpmdContext::kReduceTag, acc);
      break;
    }
    const int src_rel = rel | mask;
    if (src_rel < p) {
      if (rel != 0 && staging.empty() && !data.empty()) {
        staging.assign(data.begin(), data.end());
        bytes_copied_counter().add(staging.size());
        acc = std::span<std::byte>(staging);
      }
      const int child = actual_index(src_rel, root, p);
      int poison_origin = -1;
      std::exception_ptr failure;
      try {
        vp::Payload in = ctx.recv_payload(child, SpmdContext::kReduceTag);
        if (in.size() != acc.size()) {
          throw_size_mismatch("coll::reduce", in.size(), acc.size());
        }
        combine(in.bytes(), acc, /*incoming_first=*/false);
      } catch (const vp::ReceiveTimeout&) {
        poison_origin = child;
        failure = std::current_exception();
      } catch (const Poisoned& e) {
        poison_origin = e.origin;
        failure = std::current_exception();
      }
      if (failure) {
        if (rel != 0) {
          ctx.send_poison(actual_index(rel & (rel - 1), root, p),
                          SpmdContext::kReduceTag, poison_origin);
        }
        std::rethrow_exception(failure);
      }
    }
    mask <<= 1;
  }
}

// Root-sequential baseline, draining children in relative-rank order so the
// two algorithm families associate operands identically.
void linear_reduce(SpmdContext& ctx, std::span<std::byte> data, int root,
                   const ByteCombine& combine) {
  const int p = ctx.nprocs();
  if (ctx.index() == root) {
    for (int rel = 1; rel < p; ++rel) {
      vp::Payload in = ctx.recv_payload(actual_index(rel, root, p),
                                        SpmdContext::kReduceTag);
      if (in.size() != data.size()) {
        throw_size_mismatch("coll::reduce", in.size(), data.size());
      }
      combine(in.bytes(), data, /*incoming_first=*/false);
    }
  } else {
    ctx.send_bytes(root, SpmdContext::kReduceTag, data);
  }
}

// --- Allreduce -------------------------------------------------------------

// Recursive doubling over the largest power-of-two subgroup p2, with the
// standard pre/post fold for the remainder: extras (index >= p2) fold their
// contribution into index - p2 up front and receive the finished result at
// the end, so the doubling loop runs on exactly p2 participants.  Doubling
// moves P*log2(P) payloads where combine-then-broadcast moves ~2P, so past
// kAllreduceRdMaxBytes it stops paying: there we drain contributions at
// index 0 in index order (every one of the P-1 payloads must reach the
// combining point either way — the same argument that keeps gather linear)
// and fan the result back out as one shared payload, which is where the
// copy volume actually drops.
void tree_allreduce(SpmdContext& ctx, std::span<std::byte> data,
                    const ByteCombine& combine) {
  if (data.size() > kAllreduceRdMaxBytes) {
    linear_reduce(ctx, data, /*root=*/0, combine);
    star_broadcast_shared(ctx, data, /*root=*/0);
    return;
  }
  const int p = ctx.nprocs();
  const int r = ctx.index();
  const int p2 =
      static_cast<int>(std::bit_floor(static_cast<unsigned>(p)));
  const int rem = p - p2;
  if (r >= p2) {
    ctx.send_bytes(r - p2, SpmdContext::kAllreduceFoldTag, data);
    ctx.recv_bytes_into(r - p2, SpmdContext::kAllreduceFoldTag, data);
    return;
  }
  if (r < rem) {
    vp::Payload in =
        ctx.recv_payload(r + p2, SpmdContext::kAllreduceFoldTag);
    if (in.size() != data.size()) {
      throw_size_mismatch("coll::allreduce", in.size(), data.size());
    }
    combine(in.bytes(), data, /*incoming_first=*/false);
  }
  for (int mask = 1; mask < p2; mask <<= 1) {
    const int partner = r ^ mask;
    ctx.send_bytes(partner, SpmdContext::kAllreduceTag, data);
    vp::Payload in = ctx.recv_payload(partner, SpmdContext::kAllreduceTag);
    if (in.size() != data.size()) {
      throw_size_mismatch("coll::allreduce", in.size(), data.size());
    }
    combine(in.bytes(), data, /*incoming_first=*/partner < r);
  }
  if (r < rem) {
    ctx.send_bytes(r + p2, SpmdContext::kAllreduceFoldTag, data);
  }
}

void linear_allreduce(SpmdContext& ctx, std::span<std::byte> data,
                      const ByteCombine& combine) {
  linear_reduce(ctx, data, 0, combine);
  // Non-root buffers are untouched by reduce; the broadcast overwrites them
  // with the finished result.
  linear_broadcast(ctx, data, 0);
}

// --- Barrier ---------------------------------------------------------------

// Dissemination barrier: in round k every copy signals (index + 2^k) % P and
// waits for (index - 2^k + P) % P.  After ceil(log2 P) rounds each copy has
// (transitively) heard from every other; works for any P.
void tree_barrier(SpmdContext& ctx) {
  const int p = ctx.nprocs();
  const int r = ctx.index();
  for (int step = 1; step < p; step <<= 1) {
    ctx.send_payload((r + step) % p, SpmdContext::kBarrierDissemTag,
                     vp::Payload());
    (void)ctx.recv_payload((r - step + p) % p,
                           SpmdContext::kBarrierDissemTag);
  }
}

// The original gather-then-release baseline.
void linear_barrier(SpmdContext& ctx) {
  const std::byte token{0};
  const std::span<const std::byte> one(&token, 1);
  if (ctx.index() == 0) {
    for (int i = 1; i < ctx.nprocs(); ++i) {
      (void)ctx.recv_payload(i, SpmdContext::kBarrierUpTag);
    }
    for (int i = 1; i < ctx.nprocs(); ++i) {
      ctx.send_bytes(i, SpmdContext::kBarrierDownTag, one);
    }
  } else {
    ctx.send_bytes(0, SpmdContext::kBarrierUpTag, one);
    (void)ctx.recv_payload(0, SpmdContext::kBarrierDownTag);
  }
}

// --- Allgather -------------------------------------------------------------

// Bruck's algorithm: after round k copy r holds the blocks of ranks
// r .. r+2^k-1 (mod P) packed at the front of a staging buffer; each round
// ships the whole prefix one hop "down" and doubles it.  ceil(log2 P)
// rounds for any P, then one local rotation into index order.
void tree_allgather(SpmdContext& ctx, std::span<const std::byte> mine,
                    std::span<std::byte> all) {
  const int p = ctx.nprocs();
  const int r = ctx.index();
  const std::size_t block = mine.size();
  std::vector<std::byte> buf(block * static_cast<std::size_t>(p));
  if (block != 0) {
    std::memcpy(buf.data(), mine.data(), block);
    bytes_copied_counter().add(block);
  }
  for (int step = 1; step < p; step <<= 1) {
    const std::size_t blocks =
        static_cast<std::size_t>(step < p - step ? step : p - step);
    const std::size_t n = blocks * block;
    ctx.send_bytes((r - step + p) % p, SpmdContext::kAllgatherTag,
                   std::span<const std::byte>(buf.data(), n));
    vp::Payload in =
        ctx.recv_payload((r + step) % p, SpmdContext::kAllgatherTag);
    if (in.size() != n) {
      throw_size_mismatch("coll::allgather", in.size(), n);
    }
    if (n != 0) {
      std::memcpy(buf.data() + static_cast<std::size_t>(step) * block,
                  in.data(), n);
      bytes_copied_counter().add(n);
    }
  }
  // buf slot i holds rank (r + i) % P's block; rotate into index order.
  for (int i = 0; i < p; ++i) {
    if (block == 0) break;
    std::memcpy(all.data() + static_cast<std::size_t>((r + i) % p) * block,
                buf.data() + static_cast<std::size_t>(i) * block, block);
  }
  vp::note_bytes_delivered(block * static_cast<std::size_t>(p));
}

// Gather-to-0 then broadcast-the-concatenation, receiving each block
// straight into its destination slot — the original baseline.
void linear_allgather(SpmdContext& ctx, std::span<const std::byte> mine,
                      std::span<std::byte> all) {
  const int p = ctx.nprocs();
  const std::size_t block = mine.size();
  if (ctx.index() == 0) {
    if (block != 0) {
      std::memcpy(all.data(), mine.data(), block);
      vp::note_bytes_delivered(block);
    }
    for (int i = 1; i < p; ++i) {
      ctx.recv_bytes_into(
          i, SpmdContext::kAllgatherTag,
          all.subspan(static_cast<std::size_t>(i) * block, block));
    }
    for (int i = 1; i < p; ++i) {
      ctx.send_bytes(i, SpmdContext::kAllgatherTag, all);
    }
  } else {
    ctx.send_bytes(0, SpmdContext::kAllgatherTag, mine);
    ctx.recv_bytes_into(0, SpmdContext::kAllgatherTag, all);
  }
}

}  // namespace

Algo algo_from_name(std::string_view name, bool& known_out) {
  if (name == "linear") {
    known_out = true;
    return Algo::Linear;
  }
  if (name == "tree") {
    known_out = true;
    return Algo::Tree;
  }
  known_out = false;
  return Algo::Tree;
}

Algo algorithm() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Algo>(forced);
  return env_algorithm();
}

void force(Algo a) {
  g_forced.store(static_cast<int>(a), std::memory_order_relaxed);
}

void unforce() { g_forced.store(-1, std::memory_order_relaxed); }

void barrier(SpmdContext& ctx) {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("coll.barrier_ns");
  const Algo a = algorithm();
  obs::Span span(obs::Op::CollBarrier, ctx.comm(), 0, &hist);
  span.set_arg1(a == Algo::Tree ? 1 : 0);
  if (ctx.nprocs() == 1) return;
  if (a == Algo::Tree) {
    tree_barrier(ctx);
  } else {
    linear_barrier(ctx);
  }
}

void broadcast(SpmdContext& ctx, std::span<std::byte> data, int root) {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("coll.broadcast_ns");
  const Algo a = algorithm();
  obs::Span span(obs::Op::CollBcast, ctx.comm(), data.size(), &hist);
  span.set_arg1(a == Algo::Tree ? 1 : 0);
  if (ctx.nprocs() == 1) return;
  if (a == Algo::Tree) {
    tree_broadcast_bytes(ctx, data, root);
  } else {
    linear_broadcast(ctx, data, root);
  }
}

vp::Payload broadcast_payload(SpmdContext& ctx, vp::Payload mine, int root) {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("coll.broadcast_ns");
  const Algo a = algorithm();
  obs::Span span(obs::Op::CollBcast, ctx.comm(),
                 ctx.index() == root ? mine.size() : 0, &hist);
  span.set_arg1(a == Algo::Tree ? 1 : 0);
  if (ctx.nprocs() == 1) return mine;
  if (a == Algo::Tree) {
    return tree_broadcast_payload(ctx, std::move(mine), root);
  }
  return linear_broadcast_payload(ctx, std::move(mine), root);
}

void reduce(SpmdContext& ctx, std::span<std::byte> data, int root,
            const ByteCombine& combine) {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("coll.reduce_ns");
  const Algo a = algorithm();
  obs::Span span(obs::Op::CollReduce, ctx.comm(), data.size(), &hist);
  span.set_arg1(a == Algo::Tree ? 1 : 0);
  if (ctx.nprocs() == 1) return;
  if (a == Algo::Tree) {
    tree_reduce(ctx, data, root, combine);
  } else {
    linear_reduce(ctx, data, root, combine);
  }
}

void allreduce(SpmdContext& ctx, std::span<std::byte> data,
               const ByteCombine& combine) {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("coll.allreduce_ns");
  const Algo a = algorithm();
  obs::Span span(obs::Op::CollAllreduce, ctx.comm(), data.size(), &hist);
  span.set_arg1(a == Algo::Tree ? 1 : 0);
  if (ctx.nprocs() == 1) return;
  if (a == Algo::Tree) {
    tree_allreduce(ctx, data, combine);
  } else {
    linear_allreduce(ctx, data, combine);
  }
}

void allgather(SpmdContext& ctx, std::span<const std::byte> mine,
               std::span<std::byte> all) {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("coll.allgather_ns");
  if (all.size() != mine.size() * static_cast<std::size_t>(ctx.nprocs())) {
    throw std::invalid_argument(
        "coll::allgather: `all` must hold nprocs() * mine.size() bytes");
  }
  const Algo a = algorithm();
  obs::Span span(obs::Op::CollAllgather, ctx.comm(), mine.size(), &hist);
  span.set_arg1(a == Algo::Tree ? 1 : 0);
  if (ctx.nprocs() == 1) {
    if (!mine.empty()) {
      std::memcpy(all.data(), mine.data(), mine.size());
      vp::note_bytes_delivered(mine.size());
    }
    return;
  }
  if (a == Algo::Tree) {
    tree_allgather(ctx, mine, all);
  } else {
    linear_allgather(ctx, mine, all);
  }
}

}  // namespace tdp::spmd::coll
