#include "dist/array_manager.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <linux/membarrier.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"

namespace tdp::dist {

/// Arrays of up to this many dimensions keep their route geometry inline
/// and take the lock-free element path; larger ones take the locked core.
constexpr std::size_t kInlineDims = 4;

/// What a route slot points at: one shard's storage and the affine map from
/// a global index in the shard to its storage offset (the cell origin and
/// the borders folded into `bias`).  Immutable once published; a migration
/// or a border change publishes a fresh one and retires the old.
struct ShardRoute {
  std::shared_ptr<LocalSection> storage;  ///< keeps `base` alive
  void* base = nullptr;                   ///< storage->data()
  long long stride[kInlineDims] = {};     ///< per dimension, borders included
  long long bias = 0;

  long long offset(std::span<const int> indices) const {
    long long off = bias;
    for (std::size_t d = 0; d < indices.size(); ++d) {
      off += indices[d] * stride[d];
    }
    return off;
  }
};

/// One shard's entry in a route block.  Its sequence is odd while a mutator
/// copies, snapshots or replaces the shard's storage; every change happens
/// under the owner's node lock, and a migration or border change also
/// bumps it, so the sequence doubles as the slot's route epoch.  Element
/// writes do not bump it.  A freed array's slots stay odd.
struct RouteSlot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<int> owner{-1};
  std::atomic<ShardRoute*> route{nullptr};
};

/// The flat, lock-free route to an array's shards (DESIGN §12 "Routing"):
/// immutable geometry plus one slot per shard.  create_array publishes it
/// in the manager's directory; free_array unpublishes it and deletes it
/// once in-flight readers have drained.
struct RouteBlock {
  RouteBlock() = default;
  RouteBlock(const RouteBlock&) = delete;
  RouteBlock& operator=(const RouteBlock&) = delete;
  ~RouteBlock();

  /// The shard holding `indices` (fast_rank of them), or -1 when they are
  /// out of range.
  long long shard_of(std::span<const int> indices) const {
    long long shard = 0;
    for (std::size_t d = 0; d < indices.size(); ++d) {
      if (static_cast<unsigned>(indices[d]) >=
          static_cast<unsigned>(extent[d])) {
        return -1;
      }
      const std::uint64_t cell =
          static_cast<std::uint64_t>(indices[d]) * div_mul[d] >> div_shift[d];
      shard += static_cast<long long>(cell) * grid_stride[d];
    }
    return shard;
  }

  ArrayId id;
  ElemType type = ElemType::Float64;
  Indexing indexing = Indexing::RowMajor;
  Indexing grid_indexing = Indexing::RowMajor;
  /// The dimension count, or a count no request has (so every request
  /// falls back) above kInlineDims.
  std::size_t fast_rank = 0;
  int extent[kInlineDims] = {};             ///< global dimensions
  long long grid_stride[kInlineDims] = {};  ///< shard rank strides
  /// Per dimension, index / local_dims[d] as (index * mul) >> shift: exact
  /// for every index below 2^31, and a multiply instead of a division.
  std::uint64_t div_mul[kInlineDims] = {};
  unsigned div_shift[kInlineDims] = {};
  std::vector<int> local_dims;
  std::vector<int> grid_dims;
  long long cells = 0;
  /// Set by the first lock-free element write: until then a mutator need
  /// not issue the process barrier (quiesce_writers).
  std::atomic<bool> written{false};
  std::shared_ptr<ShardStats> stats;
  /// Per processor: true while it holds a record (replica) of the array.
  std::unique_ptr<std::atomic<bool>[]> replica;
  std::unique_ptr<RouteSlot[]> slots;
};

namespace {

obs::Histogram& am_service_hist() {
  static obs::Histogram& h =
      obs::Registry::instance().histogram("am.service_ns");
  return h;
}

obs::ShardedCounter& am_bytes_moved() {
  static obs::ShardedCounter& c =
      obs::Registry::instance().counter("am.bytes_moved");
  return c;
}

obs::ShardedCounter& am_shard_migrations() {
  static obs::ShardedCounter& c =
      obs::Registry::instance().counter("am.shard_migrations");
  return c;
}

obs::ShardedCounter& am_migrated_bytes() {
  static obs::ShardedCounter& c =
      obs::Registry::instance().counter("am.migrated_bytes");
  return c;
}

obs::ShardedCounter& am_shard_forwards() {
  static obs::ShardedCounter& c =
      obs::Registry::instance().counter("am.shard_forwards");
  return c;
}

obs::ShardedCounter& am_rebalances() {
  static obs::ShardedCounter& c =
      obs::Registry::instance().counter("am.rebalances");
  return c;
}

/// True when the section's interior is its whole storage (no borders), so
/// bulk moves can be one memcpy instead of an element walk.
bool contiguous_interior(const std::vector<int>& borders) {
  for (int b : borders) {
    if (b != 0) return false;
  }
  return true;
}

/// TDP_DIST_SHARDS: overshard default 1-D block decompositions to this many
/// shards.  Read fresh on every creation so tests can flip it per-case.
/// Checked parse: garbage and negative values warn loudly and read as 0
/// (no oversharding) instead of silently flowing into grid math.
int env_shard_count() {
  return util::env_int32("TDP_DIST_SHARDS", 0, 0, 1 << 20);
}

/// At most one live ArrayManager feeds the telemetry dist probe; the last
/// one constructed wins, and only the owner clears it on destruction.
std::atomic<ArrayManager*> g_dist_probe_owner{nullptr};

/// Deadline for a request parked on a quiesced shard.  Requesters wake on
/// the migration-completion signal, so this bounds only pathological states
/// (a shard that is nowhere); it can therefore be generous — a large-shard
/// migration legitimately holds the quiesce for as long as its copy takes,
/// and must not turn concurrent accesses into spurious failures.
constexpr auto kQuiesceTimeout = std::chrono::seconds(10);

/// Bound on migrate_shard's pin-drain wait.  A migration requested from
/// code that itself holds a pin on the array can never be satisfied; the
/// bound converts that self-deadlock into Status::Error.
constexpr auto kPinDrainTimeout = std::chrono::seconds(2);

/// with_shard locators: the shard a request addresses, or -1 (Invalid).
auto element_shard(std::span<const int> indices) {
  return [indices](const ArrayRecord& rec) -> long long {
    if (!indices_in_range(indices, rec.dims)) return -1;
    return shard_rank(indices, rec.local_dims, rec.grid_dims,
                      rec.grid_indexing);
  };
}

auto shard_in_range(long long shard) {
  return [shard](const ArrayRecord& rec) -> long long {
    return shard >= 0 && shard < rec.shards.cells ? shard : -1;
  };
}

/// A record's metadata without its sections: the replica a processor new
/// to the array receives.  Copying the section map would cost a node and
/// two vectors per owned shard plus a storage refcount bump.
ArrayRecord replica_of(const ArrayRecord& r) {
  ArrayRecord out;
  out.id = r.id;
  out.type = r.type;
  out.dims = r.dims;
  out.processors = r.processors;
  out.pool = r.pool;
  out.grid_dims = r.grid_dims;
  out.local_dims = r.local_dims;
  out.borders = r.borders;
  out.dims_plus = r.dims_plus;
  out.indexing = r.indexing;
  out.grid_indexing = r.grid_indexing;
  out.shards = r.shards;
  out.stats = r.stats;
  out.route = r.route;
  return out;
}

/// Reports an access of `bytes` on the request's span and in
/// am.bytes_moved when observability is on.
void note_moved(obs::Span& span, std::uint64_t bytes) {
  if (obs::enabled()) {
    span.set_arg1(bytes);
    am_bytes_moved().add(bytes);
  }
}

/// Charges an owner-side access of `bytes` to the shard's traffic tally
/// and reports it (note_moved).
void charge(ShardStats& stats, long long shard, std::uint64_t bytes,
            obs::Span& span) {
  stats.add(static_cast<std::size_t>(shard), bytes);
  note_moved(span, bytes);
}

/// Opens and closes one change of what a route slot points at; the caller
/// holds the node lock of the slot's owner.  Readers that see the odd
/// sequence, or a different one when they re-check, fall back.  The open
/// is seq_cst so that quiesce_writers' flag load cannot move ahead of it.
void seq_open(RouteSlot& slot) {
  slot.seq.store(slot.seq.load(std::memory_order_relaxed) + 1,
                 std::memory_order_seq_cst);
}
void seq_close(RouteSlot& slot) {
  slot.seq.store(slot.seq.load(std::memory_order_relaxed) + 1,
                 std::memory_order_release);
}

/// Waits under `lock` until `done()`, or until `deadline` unless it is
/// time_point::max(); false on timeout.  A task on a steal worker parks,
/// listed in `waiters` so that its waker can ready it under the same mutex;
/// any other caller blocks on `cv`.
template <class Done>
bool wait_for(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
              std::vector<sched::TaskRef>& waiters,
              std::chrono::steady_clock::time_point deadline, Done done) {
  const bool timed = deadline != std::chrono::steady_clock::time_point::max();
  if (!sched::on_worker_fiber()) {
    if (!timed) {
      cv.wait(lock, done);
      return true;
    }
    return cv.wait_until(lock, deadline, done);
  }
  const sched::TaskRef self = sched::current_task();
  bool in_time = true;
  while (!done()) {
    if (timed && std::chrono::steady_clock::now() >= deadline) {
      in_time = false;
      break;
    }
    if (std::find(waiters.begin(), waiters.end(), self) == waiters.end()) {
      waiters.push_back(self);
    }
    if (timed) {
      sched::park_until(lock, deadline);
    } else {
      sched::park(lock);
    }
  }
  waiters.erase(std::remove(waiters.begin(), waiters.end(), self),
                waiters.end());
  return in_time;
}

/// Readies every task parked by wait_for; the caller holds the mutex they
/// parked with.
void ready_all(std::vector<sched::TaskRef>& waiters) {
  for (sched::TaskRef t : waiters) sched::ready(t);
  waiters.clear();
}

/// Registers the process for expedited membarrier once; false where the
/// kernel lacks it, which turns the fast path off.
bool barrier_available() {
  static const bool ok =
      syscall(__NR_membarrier, MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED, 0,
              0) == 0;
  return ok;
}

/// A full memory barrier on every running thread of the process.  A forked
/// child inherits the "registered" answer but not the registration, so a
/// refused barrier registers again first.
void process_barrier() {
  if (!barrier_available()) return;
  if (syscall(__NR_membarrier, MEMBARRIER_CMD_PRIVATE_EXPEDITED, 0, 0) != 0) {
    syscall(__NR_membarrier, MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED, 0, 0);
    syscall(__NR_membarrier, MEMBARRIER_CMD_PRIVATE_EXPEDITED, 0, 0);
  }
}

/// Called by a mutator that copies, snapshots or replaces shard storage
/// of `block` after it has opened the slots concerned (DESIGN §12 "A
/// write").  A lock-free write stores and then re-checks the sequence;
/// after the process barrier, each one in flight has either made its store
/// visible here or will see the odd sequence and redo itself under the
/// lock, but a stray store may still land while the mutator copies: true
/// then.  An array no lock-free write has reached needs no barrier and
/// sees no stray store.  The open, this load, mark_written's store and
/// write_fast's loads are all seq_cst: if this load misses the flag, the
/// write that sets it sees the open and falls back without storing.
bool quiesce_writers(const RouteBlock& block) {
  if (!block.written.load(std::memory_order_seq_cst)) return false;
  process_barrier();
  return true;
}

/// Opens `slot` of `block` and quiesces its lock-free writers (with
/// quiesce_writers' answer); the caller holds the owner's node lock and
/// closes the slot with seq_close.
bool quiesce_slot(const RouteBlock& block, RouteSlot& slot) {
  seq_open(slot);
  return quiesce_writers(block);
}

/// The first lock-free write to `block`: from here on its mutators issue
/// the process barrier.  Out of line: a seq_cst store is a locked
/// instruction.
[[gnu::noinline]] void mark_written(RouteBlock& block) {
  block.written.store(true, std::memory_order_seq_cst);
}

/// One thread's fast-path read record: its sequence is odd while the
/// thread is inside a read section (read_fast, write_fast).  Only the
/// owning thread stores to it, with plain stores; drain_readers pairs them
/// with a process-wide barrier instead of an atomic read-modify-write per
/// request, which costs about as much as the rest of a read.
struct alignas(64) ReaderRecord {
  std::atomic<std::uint64_t> seq{0};
};

/// Every live thread's read record.  Leaked, so that threads exiting after
/// static destruction can still deregister.
struct ReaderRegistry {
  std::mutex mutex;
  std::vector<ReaderRecord*> records;

  static ReaderRegistry& instance() {
    static ReaderRegistry* reg = new ReaderRegistry;
    return *reg;
  }
};

thread_local ReaderRecord* t_reader = nullptr;
thread_local bool t_reader_gone = false;

/// The thread's record, listed in the registry from the thread's first
/// request until the thread exits.
struct ThreadReader {
  ThreadReader() {
    ReaderRegistry& reg = ReaderRegistry::instance();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.records.push_back(&record);
    t_reader = &record;
  }
  ~ThreadReader() {
    ReaderRegistry& reg = ReaderRegistry::instance();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.records.erase(
        std::find(reg.records.begin(), reg.records.end(), &record));
    t_reader = nullptr;
    t_reader_gone = true;
  }
  ThreadReader(const ThreadReader&) = delete;
  ThreadReader& operator=(const ThreadReader&) = delete;

  ReaderRecord record;
};

/// The thread's record on its first request; nullptr while the thread
/// exits, or for good where the process barrier is missing (the fast path
/// is then off).
[[gnu::noinline]] ReaderRecord* register_reader() {
  if (t_reader_gone || !barrier_available()) return nullptr;
  thread_local ThreadReader reader;
  return &reader.record;
}

/// A fast-path read section: while it lives, drain_readers waits before
/// anything this thread may have loaded from the route directory is freed.
/// `entered()` is false when the fast path is off (no barrier, thread
/// exiting); the request then takes the locked path.
class ReadSection {
 public:
  ReadSection() : rec_(t_reader != nullptr ? t_reader : register_reader()) {
    if (rec_ == nullptr) return;
    seq_ = rec_->seq.load(std::memory_order_relaxed) + 1;
    rec_->seq.store(seq_, std::memory_order_relaxed);
    // Orders the store before the loads that follow for the compiler; the
    // process barrier in drain_readers orders it for the hardware.
    std::atomic_signal_fence(std::memory_order_seq_cst);
  }
  ~ReadSection() {
    if (rec_ != nullptr) rec_->seq.store(seq_ + 1, std::memory_order_release);
  }
  ReadSection(const ReadSection&) = delete;
  ReadSection& operator=(const ReadSection&) = delete;

  bool entered() const { return rec_ != nullptr; }

 private:
  ReaderRecord* rec_;
  std::uint64_t seq_ = 0;
};

/// The calling thread's ShardStats row: kUnclaimed until its first charge,
/// then its tally slot, or ShardStats::kSlots (the shared row) when every
/// slot was held or once the thread is exiting.
constexpr unsigned kUnclaimed = ~0u;
thread_local unsigned t_tally = kUnclaimed;

/// Which tally slots live threads hold.  Leaked, like ReaderRegistry.
struct TallySlots {
  std::mutex mutex;
  bool held[ShardStats::kSlots] = {};

  static TallySlots& instance() {
    static TallySlots* slots = new TallySlots;
    return *slots;
  }
};

/// Holds the thread's tally slot until the thread exits.  The mutex orders
/// the last charges of a slot's old holder before the first of its next.
struct TallyClaim {
  TallyClaim() {
    TallySlots& ts = TallySlots::instance();
    std::lock_guard<std::mutex> lock(ts.mutex);
    for (unsigned i = 0; i < ShardStats::kSlots; ++i) {
      if (!ts.held[i]) {
        ts.held[i] = true;
        slot = i;
        break;
      }
    }
    t_tally = slot;
  }
  ~TallyClaim() {
    if (slot < ShardStats::kSlots) {
      TallySlots& ts = TallySlots::instance();
      std::lock_guard<std::mutex> lock(ts.mutex);
      ts.held[slot] = false;
    }
    t_tally = ShardStats::kSlots;
  }
  TallyClaim(const TallyClaim&) = delete;
  TallyClaim& operator=(const TallyClaim&) = delete;

  unsigned slot = ShardStats::kSlots;
};

/// Claims the thread's tally slot on its first charge.
unsigned claim_tally() {
  thread_local TallyClaim claim;
  return t_tally;
}

/// Tally cells per ShardStats across its private rows: arrays with more
/// shards than fit give fewer threads a row of their own.
constexpr std::size_t kTallyLines = 256;

/// Row- or column-major strides of a shape.
std::vector<long long> strides_of(std::span<const int> extent,
                                  Indexing ordering) {
  std::vector<long long> out(extent.size());
  long long s = 1;
  for (std::size_t i = 0; i < extent.size(); ++i) {
    const std::size_t d =
        ordering == Indexing::RowMajor ? extent.size() - 1 - i : i;
    out[d] = s;
    s *= extent[d];
  }
  return out;
}

/// The route to shard `shard` of `block` held in `storage`, whose interior
/// is `interior` and borders `borders`: ShardRoute::offset agrees with
/// element_offset for every global index in the shard.
std::unique_ptr<ShardRoute> make_route(const RouteBlock& block,
                                       long long shard,
                                       std::shared_ptr<LocalSection> storage,
                                       const std::vector<int>& interior,
                                       const std::vector<int>& borders) {
  auto r = std::make_unique<ShardRoute>();
  r->base = storage->data();
  r->storage = std::move(storage);
  const std::vector<long long> stride =
      strides_of(dims_plus_borders(interior, borders), block.indexing);
  const std::vector<int> pos =
      delinearize(shard, block.grid_dims, block.grid_indexing);
  for (std::size_t d = 0; d < pos.size(); ++d) {
    if (d < kInlineDims) r->stride[d] = stride[d];
    r->bias += (borders[2 * d] -
                static_cast<long long>(pos[d]) * block.local_dims[d]) *
               stride[d];
  }
  return r;
}

/// An unpublished route block for `meta` with empty slots; create_local
/// fills them.
std::unique_ptr<RouteBlock> make_block(const ArrayRecord& meta,
                                       std::size_t nprocs) {
  auto block = std::make_unique<RouteBlock>();
  block->id = meta.id;
  block->type = meta.type;
  block->indexing = meta.indexing;
  block->grid_indexing = meta.grid_indexing;
  block->local_dims = meta.local_dims;
  block->grid_dims = meta.grid_dims;
  const std::size_t rank = meta.dims.size();
  block->fast_rank = rank <= kInlineDims ? rank : ~std::size_t{0};
  const std::vector<long long> grid_stride =
      strides_of(meta.grid_dims, meta.grid_indexing);
  for (std::size_t d = 0; d < std::min(rank, kInlineDims); ++d) {
    block->extent[d] = meta.dims[d];
    block->grid_stride[d] = grid_stride[d];
    // Granlund-Montgomery: with 2^(s-1) < l <= 2^s and m =
    // floor(2^(31+s) / l) + 1, (n * m) >> (31 + s) == n / l for all
    // n < 2^31, and n * m < 2^63.
    const auto l = static_cast<std::uint64_t>(meta.local_dims[d]);
    unsigned shift = 0;
    while ((1ull << shift) < l) ++shift;
    block->div_shift[d] = 31 + shift;
    block->div_mul[d] = (1ull << (31 + shift)) / l + 1;
  }
  block->cells = meta.shards.cells;
  block->stats = meta.stats;
  block->replica = std::make_unique<std::atomic<bool>[]>(nprocs);
  block->slots =
      std::make_unique<RouteSlot[]>(static_cast<std::size_t>(block->cells));
  return block;
}

/// The directory's probe start for `id`.
std::size_t route_hash(ArrayId id) {
  std::uint64_t h = id.seq * 0x9E3779B97F4A7C15ull +
                    static_cast<std::uint64_t>(id.creator);
  h ^= h >> 29;
  return static_cast<std::size_t>(h);
}

/// The directory's tombstone: a removed entry.  Its id never matches, so a
/// lookup probes past it.
RouteBlock* gone() {
  static RouteBlock tombstone;
  return &tombstone;
}

}  // namespace

RouteBlock::~RouteBlock() {
  for (long long s = 0; s < cells; ++s) {
    delete slots[static_cast<std::size_t>(s)].route.load(
        std::memory_order_relaxed);
  }
}

struct ArrayManager::RouteDir {
  explicit RouteDir(std::size_t size)
      : mask(size - 1),
        slots(std::make_unique<std::atomic<RouteBlock*>[]>(size)) {}

  /// Stores `b` at the first free or removed slot of its probe sequence.
  void place(RouteBlock* b) {
    for (std::size_t i = route_hash(b->id);; ++i) {
      std::atomic<RouteBlock*>& slot = slots[i & mask];
      RouteBlock* cur = slot.load(std::memory_order_relaxed);
      if (cur == nullptr || cur == gone()) {
        if (cur == nullptr) ++used;
        ++live;
        slot.store(b, std::memory_order_seq_cst);
        return;
      }
    }
  }

  std::size_t mask;
  std::size_t used = 0;  ///< live and removed entries (under dir_mutex_)
  std::size_t live = 0;
  std::unique_ptr<std::atomic<RouteBlock*>[]> slots;
};

ShardStats::ShardStats(std::size_t n)
    : n_(n),
      row_lines_((n + 7) / 8),
      rows_(static_cast<unsigned>(
          std::min<std::size_t>(kSlots, kTallyLines / row_lines_))),
      lines_(std::make_unique<Line[]>((rows_ + 1) * row_lines_)),
      base_(std::make_unique<std::atomic<std::uint64_t>[]>(n)) {}

void ShardStats::add(std::size_t shard, std::uint64_t n) {
  const unsigned row = t_tally;
  if (row < rows_) {
    // Only this thread stores to its row: no read-modify-write.
    std::atomic<std::uint64_t>& c = cell(row, shard);
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
    return;
  }
  add_shared(shard, n);
}

// Out of line, so that the request paths that charge hold no locked
// instruction.
[[gnu::noinline]] void ShardStats::add_shared(std::size_t shard,
                                              std::uint64_t n) {
  if (t_tally == kUnclaimed && claim_tally() < rows_) {
    add(shard, n);
    return;
  }
  cell(rows_, shard).fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t ShardStats::sum(std::size_t shard) const {
  std::uint64_t total = 0;
  for (unsigned row = 0; row <= rows_; ++row) {
    total += cell(row, shard).load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t ShardStats::read(std::size_t shard) const {
  const std::uint64_t total = sum(shard);
  const std::uint64_t base = base_[shard].load(std::memory_order_relaxed);
  return total > base ? total - base : 0;
}

void ShardStats::reset() {
  for (std::size_t s = 0; s < n_; ++s) {
    base_[s].store(sum(s), std::memory_order_relaxed);
  }
}

ShardMap ShardMap::initial(long long cells, const std::vector<int>& pool) {
  ShardMap m;
  m.cells = cells;
  std::size_t size = 1;
  while (size < static_cast<std::size_t>(cells)) size <<= 1;
  m.owners.resize(size);
  for (std::size_t s = 0; s < size; ++s) {
    m.owners[s] = pool[s % pool.size()];
  }
  return m;
}

ArrayManager::ArrayManager(vp::Machine& machine, BorderLookup border_lookup)
    : machine_(machine),
      border_lookup_(std::move(border_lookup)),
      nodes_(static_cast<std::size_t>(machine.nprocs())),
      routes_(new RouteDir(16)) {
  g_dist_probe_owner.store(this, std::memory_order_release);
  obs::Telemetry::instance().set_dist_probe([this] {
    obs::Telemetry::DistSample d;
    d.migrations = am_shard_migrations().value();
    d.rebalances = am_rebalances().value();
    d.forwards = am_shard_forwards().value();
    for (const ShardTrafficRow& r : hottest_shards(8)) {
      obs::Telemetry::DistSample::ShardRow row;
      row.creator = r.id.creator;
      row.seq = r.id.seq;
      row.shard = r.shard;
      row.owner = r.owner;
      row.bytes = r.bytes;
      d.hottest.push_back(std::move(row));
    }
    return d;
  });
}

ArrayManager::~ArrayManager() {
  ArrayManager* expected = this;
  if (g_dist_probe_owner.compare_exchange_strong(expected, nullptr,
                                                 std::memory_order_acq_rel)) {
    obs::Telemetry::instance().set_dist_probe(nullptr);
  }
  // Arrays never freed still own their route blocks.
  RouteDir* dir = routes_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i <= dir->mask; ++i) {
    RouteBlock* b = dir->slots[i].load(std::memory_order_relaxed);
    if (b != gone()) delete b;
  }
  delete dir;
}

RouteBlock* ArrayManager::find_route(int on_proc, ArrayId id) const {
  const RouteDir* dir = routes_.load(std::memory_order_seq_cst);
  for (std::size_t i = route_hash(id);; ++i) {
    RouteBlock* b = dir->slots[i & dir->mask].load(std::memory_order_seq_cst);
    if (b == nullptr) return nullptr;
    if (b->id == id) {
      return b->replica[static_cast<std::size_t>(on_proc)].load(
                 std::memory_order_relaxed)
                 ? b
                 : nullptr;
    }
  }
}

void ArrayManager::publish_route(std::unique_ptr<RouteBlock> block) {
  std::unique_ptr<RouteDir> old;
  {
    std::lock_guard<std::mutex> lock(dir_mutex_);
    RouteDir* dir = routes_.load(std::memory_order_relaxed);
    // Keep at least half the table empty, so every probe ends at an empty
    // slot within a few steps; on growth, drop the removed entries too.
    if ((dir->used + 1) * 2 > dir->mask + 1) {
      std::size_t size = 16;
      while (size < 4 * (dir->live + 1)) size <<= 1;
      auto fresh = std::make_unique<RouteDir>(size);
      for (std::size_t i = 0; i <= dir->mask; ++i) {
        RouteBlock* b = dir->slots[i].load(std::memory_order_relaxed);
        if (b != nullptr && b != gone()) fresh->place(b);
      }
      fresh->place(block.release());
      routes_.store(fresh.release(), std::memory_order_seq_cst);
      old.reset(dir);
    } else {
      dir->place(block.release());
    }
  }
  if (old) drain_readers();  // then `old` is deleted
}

std::unique_ptr<RouteBlock> ArrayManager::unpublish_route(ArrayId id) {
  std::lock_guard<std::mutex> lock(dir_mutex_);
  RouteDir* dir = routes_.load(std::memory_order_relaxed);
  for (std::size_t i = route_hash(id);; ++i) {
    std::atomic<RouteBlock*>& slot = dir->slots[i & dir->mask];
    RouteBlock* b = slot.load(std::memory_order_relaxed);
    if (b == nullptr) return nullptr;
    if (b->id == id) {
      slot.store(gone(), std::memory_order_seq_cst);
      --dir->live;
      return std::unique_ptr<RouteBlock>(b);
    }
  }
}

void ArrayManager::drain_readers() {
  // After the barrier, every thread that entered a read section before it
  // shows an odd sequence here, and every later entry sees what the caller
  // unpublished; only the former are waited out, each until its sequence
  // moves on.
  process_barrier();
  ReaderRegistry& reg = ReaderRegistry::instance();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const ReaderRecord* r : reg.records) {
    const std::uint64_t seen = r->seq.load(std::memory_order_acquire);
    if ((seen & 1) == 0) continue;
    while (r->seq.load(std::memory_order_acquire) == seen) {
      std::this_thread::yield();
    }
  }
}

void ArrayManager::set_border_lookup(BorderLookup lookup) {
  border_lookup_ = std::move(lookup);
}

void ArrayManager::set_trace(TraceFn trace) {
  std::lock_guard<std::mutex> lock(trace_mutex_);
  trace_set_.store(trace != nullptr, std::memory_order_release);
  trace_ = std::move(trace);
}

double ArrayManager::env_rebalance_ratio() {
  const char* env = std::getenv("TDP_DIST_REBALANCE");
  if (env == nullptr || env[0] == '\0') return 0.0;
  const double v = std::strtod(env, nullptr);
  return v > 0.0 ? v : 0.0;
}

Status ArrayManager::traced(std::string_view op, int on_proc, ArrayId id,
                            Status status) const {
  static obs::ShardedCounter& requests =
      obs::Registry::instance().counter("am.requests");
  if (obs::enabled()) requests.add();
  if (!trace_set_.load(std::memory_order_acquire)) return status;
  TraceFn trace;
  {
    std::lock_guard<std::mutex> lock(trace_mutex_);
    trace = trace_;
  }
  if (trace) trace(op, on_proc, id, status);
  return status;
}

Status ArrayManager::resolve_borders(const BorderSpec& spec, int ndims,
                                     std::vector<int>& out) const {
  switch (spec.kind) {
    case BorderSpec::Kind::None:
      out.assign(static_cast<std::size_t>(2 * ndims), 0);
      return Status::Ok;
    case BorderSpec::Kind::Explicit:
      if (spec.sizes.size() != static_cast<std::size_t>(2 * ndims)) {
        return Status::Invalid;
      }
      for (int b : spec.sizes) {
        if (b < 0) return Status::Invalid;
      }
      out = spec.sizes;
      return Status::Ok;
    case BorderSpec::Kind::Foreign: {
      if (!border_lookup_) return Status::Invalid;
      Status st = border_lookup_(spec.program, spec.parm_num, ndims, out);
      if (!ok(st)) return st;
      if (out.size() != static_cast<std::size_t>(2 * ndims)) {
        return Status::Invalid;
      }
      for (int b : out) {
        if (b < 0) return Status::Invalid;
      }
      return Status::Ok;
    }
  }
  return Status::Error;
}

Status ArrayManager::create_array(int on_proc, ElemType type,
                                  const std::vector<int>& dims,
                                  const std::vector<int>& processors,
                                  const std::vector<DimSpec>& distrib,
                                  const BorderSpec& borders, Indexing indexing,
                                  ArrayId& id_out) {
  obs::Span span(obs::Op::AmCreate, 0,
                 static_cast<std::uint64_t>(static_cast<unsigned>(on_proc)),
                 &am_service_hist());
  const Status st = [&]() -> Status {
      id_out = ArrayId{};
      if (!machine_.valid_proc(on_proc)) return Status::Invalid;
      if (dims.empty() || processors.empty()) return Status::Invalid;
      for (int p : processors) {
        if (!machine_.valid_proc(p)) return Status::Invalid;
      }
      // The processor list is the ownership pool: shards round-robin over
      // it, and the repartitioner treats every entry as a migration target,
      // so the entries must be distinct processors (§3.2.1.4).
      if (std::set<int>(processors.begin(), processors.end()).size() !=
          processors.size()) {
        return Status::Invalid;
      }

      const int ndims = static_cast<int>(dims.size());
      std::vector<int> border_sizes;
      if (Status st = resolve_borders(borders, ndims, border_sizes); !ok(st)) {
        return st;
      }

      // TDP_DIST_SHARDS=N oversubscribes a default 1-D block decomposition
      // to N shards when N is a valid grid for the extent; invalid N (empty
      // trailing cell) falls back to the spec as written.
      std::vector<DimSpec> spec = distrib;
      if (dims.size() == 1 && spec.size() == 1 &&
          spec[0].kind == DimSpec::Kind::Block) {
        if (const int n = env_shard_count(); n > 1) {
          std::vector<int> probe;
          if (ok(compute_grid(dims, static_cast<int>(processors.size()),
                              {DimSpec::block_n(n)}, probe))) {
            spec = {DimSpec::block_n(n)};
          }
        }
      }

      std::vector<int> grid;
      if (Status st = compute_grid(dims, static_cast<int>(processors.size()),
                                   spec, grid);
          !ok(st)) {
        return st;
      }

      const long long cells = grid_cells(grid);
      ArrayRecord meta;
      meta.type = type;
      meta.dims = dims;
      meta.pool = processors;
      meta.processors.reserve(static_cast<std::size_t>(cells));
      for (long long s = 0; s < cells; ++s) {
        meta.processors.push_back(
            processors[static_cast<std::size_t>(s) % processors.size()]);
      }
      meta.grid_dims = grid;
      meta.local_dims = local_dims(dims, grid);
      meta.borders = border_sizes;
      meta.dims_plus = dims_plus_borders(meta.local_dims, border_sizes);
      meta.indexing = indexing;
      meta.grid_indexing = indexing;  // §3.2.1.4: one choice governs both.
      meta.shards = ShardMap::initial(cells, processors);
      meta.stats = std::make_shared<ShardStats>(static_cast<std::size_t>(cells));

      {
        Node& creator = node(on_proc);
        std::lock_guard<std::mutex> lock(creator.mutex);
        meta.id = ArrayId{on_proc, creator.next_seq++};
      }

      std::unique_ptr<RouteBlock> block = make_block(meta, nodes_.size());
      meta.route = block.get();

      std::map<int, std::vector<long long>> owned;
      for (long long s = 0; s < cells; ++s) {
        owned[meta.shards.owner_of(s)].push_back(s);
      }
      for (const auto& [p, shards] : owned) create_local(p, meta, shards);
      if (owned.find(on_proc) == owned.end()) {
        create_local(on_proc, meta, {});
      }
      publish_route(std::move(block));

      if (obs::enabled()) {
        std::uint64_t bytes = 0;
        for (long long s = 0; s < cells; ++s) {
          const std::vector<int> pos =
              delinearize(s, meta.grid_dims, meta.grid_indexing);
          const std::vector<int> interior =
              cell_dims(meta.dims, meta.grid_dims, pos);
          bytes += static_cast<std::uint64_t>(
                       element_count(dims_plus_borders(interior,
                                                       meta.borders))) *
                   elem_size(type);
        }
        span.set_arg1(bytes);
        am_bytes_moved().add(bytes);
      }
      id_out = meta.id;
      return Status::Ok;
  }();
  return traced("create_array", on_proc, id_out, st);
}

ShardSection ArrayManager::make_section(const ArrayRecord& meta,
                                        long long shard) const {
  ShardSection sec;
  const std::vector<int> pos =
      delinearize(shard, meta.grid_dims, meta.grid_indexing);
  sec.interior = cell_dims(meta.dims, meta.grid_dims, pos);
  sec.dims_plus = dims_plus_borders(sec.interior, meta.borders);
  sec.storage = std::make_shared<LocalSection>(meta.type, sec.dims_plus);
  return sec;
}

void ArrayManager::create_local(int p, const ArrayRecord& meta,
                                const std::vector<long long>& owned) {
  ArrayRecord record = meta;
  RouteBlock& block = *meta.route;
  for (long long s : owned) {
    const ShardSection& sec = record.sections[s] = make_section(meta, s);
    RouteSlot& slot = block.slots[static_cast<std::size_t>(s)];
    slot.route.store(
        make_route(block, s, sec.storage, sec.interior, meta.borders)
            .release(),
        std::memory_order_relaxed);
    slot.owner.store(p, std::memory_order_relaxed);
  }
  block.replica[static_cast<std::size_t>(p)].store(true,
                                                   std::memory_order_relaxed);
  Node& n = node(p);
  std::lock_guard<std::mutex> lock(n.mutex);
  n.records[record.id] = std::move(record);
}

template <class Fn>
Status ArrayManager::with_record(int on_proc, ArrayId id, Fn fn) {
  if (!machine_.valid_proc(on_proc)) return Status::Invalid;
  Node& n = node(on_proc);
  std::lock_guard<std::mutex> lock(n.mutex);
  auto it = n.records.find(id);
  if (it == n.records.end()) return Status::NotFound;
  return fn(it->second);
}

Status ArrayManager::free_array(int on_proc, ArrayId id) {
  obs::Span span(obs::Op::AmFree, 0,
                 static_cast<std::uint64_t>(static_cast<unsigned>(on_proc)),
                 &am_service_hist());
  const Status st = [&]() -> Status {
      // No migration may re-create a replica behind the sweep below.
      std::lock_guard<std::mutex> mig(migrate_mutex_);
      if (Status st = with_record(on_proc, id,
                                  [](ArrayRecord&) { return Status::Ok; });
          !ok(st)) {
        return st;
      }
      // Unpublish first, then close every slot for good under its owner's
      // lock: fast requests that still hold the block fall back and find
      // no record.  Migration may have spread replicas anywhere; sweep
      // every node.
      const std::unique_ptr<RouteBlock> block = unpublish_route(id);
      for (int p = 0; p < machine_.nprocs(); ++p) {
        Node& n = node(p);
        std::lock_guard<std::mutex> lock(n.mutex);
        n.records.erase(id);
        if (!block) continue;
        block->replica[static_cast<std::size_t>(p)].store(
            false, std::memory_order_relaxed);
        for (long long s = 0; s < block->cells; ++s) {
          RouteSlot& slot = block->slots[static_cast<std::size_t>(s)];
          if (slot.owner.load(std::memory_order_relaxed) == p) seq_open(slot);
        }
      }
      drain_readers();  // then the block, its routes and storage go
      return Status::Ok;
  }();
  return traced("free_array", on_proc, id, st);
}

std::uint64_t ArrayManager::route_gen() const {
  return route_gen_.load(std::memory_order_acquire);
}

bool ArrayManager::wait_route_change(
    std::uint64_t seen_gen,
    std::chrono::steady_clock::time_point deadline) const {
  std::unique_lock<std::mutex> lock(route_mutex_);
  return wait_for(lock, route_cv_, route_waiters_, deadline, [&] {
    return route_gen_.load(std::memory_order_acquire) != seen_gen;
  });
}

class ArrayManager::MoverTicket {
 public:
  explicit MoverTicket(ArrayManager& am) : am_(am) {
    am_.movers_queued_.fetch_add(1, std::memory_order_acq_rel);
  }
  ~MoverTicket() {
    {
      std::lock_guard<std::mutex> lock(am_.route_mutex_);
      am_.movers_done_.fetch_add(1, std::memory_order_release);
      ready_all(am_.route_waiters_);
    }
    am_.route_cv_.notify_all();
  }
  MoverTicket(const MoverTicket&) = delete;
  MoverTicket& operator=(const MoverTicket&) = delete;

 private:
  ArrayManager& am_;
};

void ArrayManager::yield_to_movers() const {
  const std::uint64_t queued = movers_queued_.load(std::memory_order_acquire);
  const auto served = [&] {
    return movers_done_.load(std::memory_order_acquire) >= queued;
  };
  if (served()) return;
  std::unique_lock<std::mutex> lock(route_mutex_);
  wait_for(lock, route_cv_, route_waiters_,
           std::chrono::steady_clock::time_point::max(), served);
}

// Out of line, so that read_element and write_element stay small on the
// lock-free path (about 3 ns a request on fig3_9's reads).
template <class Locate, class Fn>
[[gnu::noinline]] Status ArrayManager::with_shard(int on_proc, ArrayId id,
                                                  Locate locate, Fn fn) {
  // Route on the requester's replica; when the requester owns the shard,
  // the access runs under this one lock.
  long long shard = -1;
  int owner = -1;
  std::uint64_t epoch = 0;
  bool done = false;
  const Status routed = with_record(on_proc, id, [&](ArrayRecord& rec) {
    shard = locate(rec);
    if (shard < 0) return Status::Invalid;
    owner = rec.shards.owner_of(shard);
    epoch = rec.shards.epoch;
    if (owner != on_proc) return Status::Ok;
    auto sit = rec.sections.find(shard);
    if (sit == rec.sections.end() || sit->second.migrating) return Status::Ok;
    done = true;
    return fn(rec, sit->second, shard);
  });
  if (done || !ok(routed)) return routed;

  std::optional<std::chrono::steady_clock::time_point> deadline;
  for (;;) {
    // Read the generation before inspecting the node: a migration that
    // completes between the inspection and the wait below then wakes the
    // wait immediately instead of being missed.
    const std::uint64_t gen = route_gen();
    {
      Node& n = node(owner);
      std::lock_guard<std::mutex> lock(n.mutex);
      auto it = n.records.find(id);
      if (it == n.records.end()) return Status::NotFound;  // freed
      ArrayRecord& rec = it->second;
      auto sit = rec.sections.find(shard);
      if (sit != rec.sections.end() && !sit->second.migrating) {
        return fn(rec, sit->second, shard);
      }
      // The shard is not accessible here: either it has moved (this
      // replica's table is fresher than ours — adopt its route for this
      // shard and follow it) or a migration holds it quiesced (wait for it
      // to finish).
      if (rec.shards.epoch > epoch) {
        owner = rec.shards.owner_of(shard);
        epoch = rec.shards.epoch;
        if (obs::enabled()) {
          am_shard_forwards().add();
          obs::instant(obs::Op::AmShardForward, 0,
                       static_cast<std::uint64_t>(shard), epoch);
        }
        continue;  // fresh route in hand: follow it without waiting
      }
    }
    // Never wait holding a node lock: the migration that will unblock us
    // needs it.
    if (!deadline) {
      deadline = std::chrono::steady_clock::now() + kQuiesceTimeout;
    }
    if (!wait_route_change(gen, *deadline)) return Status::Error;
  }
}

// Flattened, so that the route lookup and the tally charge are inlined:
// the request is a few dependent loads and one store.
[[gnu::flatten]] bool ArrayManager::read_fast(int on_proc, ArrayId id,
                             std::span<const int> indices, Scalar& out,
                             Status& st, std::size_t& moved) {
  if (!machine_.valid_proc(on_proc)) return false;
  const ReadSection section;
  if (!section.entered()) return false;
  const RouteBlock* b = find_route(on_proc, id);
  if (b == nullptr || indices.size() != b->fast_rank) return false;
  const long long shard = b->shard_of(indices);
  if (shard < 0) {
    st = Status::Invalid;
    return true;
  }
  const RouteSlot& slot = b->slots[static_cast<std::size_t>(shard)];
  const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
  if ((seq & 1) != 0) return false;
  const ShardRoute& r = *slot.route.load(std::memory_order_seq_cst);
  const long long off = r.offset(indices);
  const Scalar v = b->type == ElemType::Float64
                       ? Scalar{LocalSection::load_f64(r.base, off)}
                       : Scalar{LocalSection::load_i32(r.base, off)};
  if (slot.seq.load(std::memory_order_acquire) != seq) return false;
  out = v;
  moved = elem_size(b->type);
  b->stats->add(static_cast<std::size_t>(shard), moved);
  st = Status::Ok;
  return true;
}

[[gnu::flatten]] bool ArrayManager::write_fast(int on_proc, ArrayId id,
                              std::span<const int> indices,
                              const Scalar& value, Status& st,
                              std::size_t& moved) {
  if (!machine_.valid_proc(on_proc)) return false;
  const ReadSection section;
  if (!section.entered()) return false;
  RouteBlock* b = find_route(on_proc, id);
  if (b == nullptr || indices.size() != b->fast_rank) return false;
  const long long shard = b->shard_of(indices);
  if (shard < 0) {
    st = Status::Invalid;
    return true;
  }
  // Both loads seq_cst (plain moves on x86-64): if a mutator found the
  // flag clear and skipped the process barrier, its open comes before the
  // sequence load below in the seq_cst order, so this write falls back
  // without storing.
  if (!b->written.load(std::memory_order_seq_cst)) mark_written(*b);
  const RouteSlot& slot = b->slots[static_cast<std::size_t>(shard)];
  const std::uint64_t seq = slot.seq.load(std::memory_order_seq_cst);
  if ((seq & 1) != 0) return false;
  const ShardRoute& r = *slot.route.load(std::memory_order_seq_cst);
  const long long off = r.offset(indices);
  if (b->type == ElemType::Float64) {
    LocalSection::store_f64(r.base, off, scalar_to_double(value));
  } else {
    LocalSection::store_i32(r.base, off, scalar_to_int(value));
  }
  // The store comes before the re-check for the compiler; a mutator's
  // process barrier (quiesce_writers) orders the two for the hardware.  An
  // unchanged sequence means the store landed before any mutator's
  // barrier, so the mutator sees it; otherwise the store may have raced a
  // copy or a snapshot, and the locked core redoes it.
  std::atomic_signal_fence(std::memory_order_seq_cst);
  if (slot.seq.load(std::memory_order_relaxed) != seq) return false;
  moved = elem_size(b->type);
  b->stats->add(static_cast<std::size_t>(shard), moved);
  st = Status::Ok;
  return true;
}

Status ArrayManager::read_element(int on_proc, ArrayId id,
                                  std::span<const int> indices, Scalar& out) {
  if (!silent()) return read_element_full(on_proc, id, indices, out, false);
  Status st = Status::Ok;
  std::size_t moved = 0;
  if (read_fast(on_proc, id, indices, out, st, moved)) return st;
  return read_element_full(on_proc, id, indices, out, true);
}

Status ArrayManager::write_element(int on_proc, ArrayId id,
                                   std::span<const int> indices,
                                   const Scalar& value) {
  if (!silent()) return write_element_full(on_proc, id, indices, value, false);
  Status st = Status::Ok;
  std::size_t moved = 0;
  if (write_fast(on_proc, id, indices, value, st, moved)) return st;
  return write_element_full(on_proc, id, indices, value, true);
}

[[gnu::noinline]] Status ArrayManager::read_element_full(
    int on_proc, ArrayId id, std::span<const int> indices, Scalar& out,
    bool tried_fast) {
  obs::Span span(obs::Op::AmRead, 0,
                 static_cast<std::uint64_t>(static_cast<unsigned>(on_proc)),
                 &am_service_hist());
  Status st = Status::Ok;
  std::size_t moved = 0;
  if (!tried_fast && read_fast(on_proc, id, indices, out, st, moved)) {
    if (ok(st)) note_moved(span, moved);
  } else {
    st = with_shard(
        on_proc, id, element_shard(indices),
        [&](ArrayRecord& rec, ShardSection& sec, long long shard) {
          const long long off =
              element_offset(indices, rec.local_dims, sec.interior,
                             rec.borders, rec.indexing);
          if (rec.type == ElemType::Float64) {
            out = sec.storage->load_f64(off);
          } else {
            out = sec.storage->load_i32(off);
          }
          charge(*rec.stats, shard, elem_size(rec.type), span);
          return Status::Ok;
        });
  }
  return traced("read_element", on_proc, id, st);
}

[[gnu::noinline]] Status ArrayManager::write_element_full(
    int on_proc, ArrayId id, std::span<const int> indices,
    const Scalar& value, bool tried_fast) {
  obs::Span span(obs::Op::AmWrite, 0,
                 static_cast<std::uint64_t>(static_cast<unsigned>(on_proc)),
                 &am_service_hist());
  Status st = Status::Ok;
  std::size_t moved = 0;
  if (!tried_fast && write_fast(on_proc, id, indices, value, st, moved)) {
    if (ok(st)) note_moved(span, moved);
  } else {
    st = with_shard(
        on_proc, id, element_shard(indices),
        [&](ArrayRecord& rec, ShardSection& sec, long long shard) {
          const long long off =
              element_offset(indices, rec.local_dims, sec.interior,
                             rec.borders, rec.indexing);
          if (rec.type == ElemType::Float64) {
            sec.storage->store_f64(off, scalar_to_double(value));
          } else {
            sec.storage->store_i32(off, scalar_to_int(value));
          }
          charge(*rec.stats, shard, elem_size(rec.type), span);
          return Status::Ok;
        });
  }
  return traced("write_element", on_proc, id, st);
}

Status ArrayManager::find_local(int on_proc, ArrayId id,
                                LocalSectionView& out) {
  return find_section(on_proc, id, std::nullopt, out);
}

Status ArrayManager::find_local_shard(int on_proc, ArrayId id, long long shard,
                                      LocalSectionView& out) {
  return find_section(on_proc, id, shard, out);
}

Status ArrayManager::find_section(int on_proc, ArrayId id,
                                  std::optional<long long> shard,
                                  LocalSectionView& out) {
  obs::Span span(obs::Op::AmFindLocal, 0,
                 static_cast<std::uint64_t>(static_cast<unsigned>(on_proc)),
                 &am_service_hist());
  const Status st = [&]() -> Status {
      out = LocalSectionView{};
      if (!machine_.valid_proc(on_proc)) return Status::Invalid;
      std::optional<std::chrono::steady_clock::time_point> deadline;
      for (;;) {
        const std::uint64_t gen = route_gen();
        {
          Node& n = node(on_proc);
          std::lock_guard<std::mutex> lock(n.mutex);
          auto it = n.records.find(id);
          if (it == n.records.end()) return Status::NotFound;
          const ArrayRecord& r = it->second;
          // Without a shard, the lowest-ranked owned shard: for un-migrated
          // arrays with one shard per owner this is *the* local section,
          // exactly the historical behaviour.
          auto sit = shard ? r.sections.find(*shard) : r.sections.begin();
          if (sit == r.sections.end()) return Status::NotFound;
          if (!sit->second.migrating) {
            out.type = r.type;
            out.interior_dims = sit->second.interior;
            out.borders = r.borders;
            out.dims_plus = sit->second.dims_plus;
            out.indexing = r.indexing;
            out.section = sit->second.storage;
            return Status::Ok;
          }
        }
        // Migration in flight: handing out the quiesced storage would let
        // the caller mutate the payload being shipped.  Wait it out; once
        // the move lands the section is gone from here and a retry for the
        // same shard reports NotFound (no longer local).
        if (!deadline) {
          deadline = std::chrono::steady_clock::now() + kQuiesceTimeout;
        }
        if (!wait_route_change(gen, *deadline)) return Status::Error;
      }
  }();
  return traced("find_local", on_proc, id, st);
}

Status ArrayManager::read_shard_locked(const ArrayRecord& rec,
                                       const ShardSection& sec, bool racing,
                                       vp::Payload& out) {
  const std::size_t esize = elem_size(rec.type);
  const long long count = element_count(sec.interior);
  std::vector<std::byte> staging(static_cast<std::size_t>(count) * esize);
  if (contiguous_interior(rec.borders)) {
    sec.storage->load_range(0, static_cast<std::size_t>(count),
                            staging.data(), racing);
  } else {
    for (long long lin = 0; lin < count; ++lin) {
      std::vector<int> idx = delinearize(lin, sec.interior, rec.indexing);
      sec.storage->load_range(
          local_offset(idx, sec.interior, rec.borders, rec.indexing), 1,
          staging.data() + static_cast<std::size_t>(lin) * esize, racing);
    }
  }
  // take(): the one packing copy above is the only copy this snapshot
  // ever costs, however many consumers the payload is shipped to.
  out = vp::Payload::take(std::move(staging));
  return Status::Ok;
}

Status ArrayManager::write_shard_locked(ArrayRecord& rec, ShardSection& sec,
                                        const vp::Payload& data) {
  const std::size_t esize = elem_size(rec.type);
  const long long count = element_count(sec.interior);
  if (data.size() != static_cast<std::size_t>(count) * esize) {
    return Status::Invalid;
  }
  // Element by element through atomic stores: lock-free element reads may
  // race this overwrite (and discard what they read, as the slot's
  // sequence moves around it), and so may a lock-free write in flight at
  // the quiesce.
  const auto store = [&](long long dst, long long lin) {
    const std::byte* src = data.data() + static_cast<std::size_t>(lin) * esize;
    if (rec.type == ElemType::Float64) {
      double v;
      std::memcpy(&v, src, sizeof v);
      sec.storage->store_f64(dst, v);
    } else {
      int v;
      std::memcpy(&v, src, sizeof v);
      sec.storage->store_i32(dst, v);
    }
  };
  if (contiguous_interior(rec.borders)) {
    for (long long lin = 0; lin < count; ++lin) store(lin, lin);
  } else {
    for (long long lin = 0; lin < count; ++lin) {
      std::vector<int> idx = delinearize(lin, sec.interior, rec.indexing);
      store(local_offset(idx, sec.interior, rec.borders, rec.indexing), lin);
    }
  }
  return Status::Ok;
}

Status ArrayManager::read_shard(int on_proc, ArrayId id, long long shard,
                                vp::Payload& out) {
  obs::Span span(obs::Op::AmReadSection, 0,
                 static_cast<std::uint64_t>(static_cast<unsigned>(on_proc)),
                 &am_service_hist());
  out = vp::Payload();
  yield_to_movers();
  const Status st = with_shard(
      on_proc, id, shard_in_range(shard),
      [&](ArrayRecord& rec, ShardSection& sec, long long) {
        // Opened, so that no lock-free write lands mid-snapshot: the
        // snapshot is one state of the section.
        RouteSlot& slot = rec.route->slots[static_cast<std::size_t>(shard)];
        const bool racing = quiesce_slot(*rec.route, slot);
        Status st = read_shard_locked(rec, sec, racing, out);
        seq_close(slot);
        if (ok(st)) charge(*rec.stats, shard, out.size(), span);
        return st;
      });
  return traced("read_shard", on_proc, id, st);
}

Status ArrayManager::write_shard(int on_proc, ArrayId id, long long shard,
                                 const vp::Payload& data) {
  obs::Span span(obs::Op::AmWriteSection, 0,
                 static_cast<std::uint64_t>(static_cast<unsigned>(on_proc)),
                 &am_service_hist());
  yield_to_movers();
  const Status st = with_shard(
      on_proc, id, shard_in_range(shard),
      [&](ArrayRecord& rec, ShardSection& sec, long long) {
        RouteSlot& slot = rec.route->slots[static_cast<std::size_t>(shard)];
        quiesce_slot(*rec.route, slot);
        Status st = write_shard_locked(rec, sec, data);
        seq_close(slot);
        if (ok(st)) charge(*rec.stats, shard, data.size(), span);
        return st;
      });
  return traced("write_shard", on_proc, id, st);
}

Status ArrayManager::shard_owner(int on_proc, ArrayId id, long long shard,
                                 int& owner_out, std::uint64_t& epoch_out) {
  return with_record(on_proc, id, [&](ArrayRecord& meta) {
    if (shard < 0 || shard >= meta.shards.cells) return Status::Invalid;
    owner_out = meta.shards.owner_of(shard);
    epoch_out = meta.shards.epoch;
    return Status::Ok;
  });
}

Status ArrayManager::find_info(int on_proc, ArrayId id, InfoKind which,
                               InfoValue& out) {
  obs::Span span(obs::Op::AmFindInfo, 0,
                 static_cast<std::uint64_t>(static_cast<unsigned>(on_proc)),
                 &am_service_hist());
  const Status st = with_record(on_proc, id, [&](const ArrayRecord& meta) {
      switch (which) {
        case InfoKind::Type:
          out = meta.type;
          return Status::Ok;
        case InfoKind::Dimensions:
          out = meta.dims;
          return Status::Ok;
        case InfoKind::Processors: {
          // The owner set as this replica's table sees it, in first-shard
          // order: the prefix of the creation pool until a migration
          // changes it.
          std::vector<int> procs;
          for (long long s = 0; s < meta.shards.cells; ++s) {
            const int p = meta.shards.owner_of(s);
            if (std::find(procs.begin(), procs.end(), p) == procs.end()) {
              procs.push_back(p);
            }
          }
          out = std::move(procs);
          return Status::Ok;
        }
        case InfoKind::GridDimensions:
          out = meta.grid_dims;
          return Status::Ok;
        case InfoKind::LocalDimensions:
          out = meta.local_dims;
          return Status::Ok;
        case InfoKind::Borders:
          out = meta.borders;
          return Status::Ok;
        case InfoKind::LocalDimensionsPlus:
          out = meta.dims_plus;
          return Status::Ok;
        case InfoKind::IndexingType:
          out = meta.indexing;
          return Status::Ok;
        case InfoKind::GridIndexingType:
          out = meta.grid_indexing;
          return Status::Ok;
        case InfoKind::ShardCount:
          out = static_cast<std::uint64_t>(meta.shards.cells);
          return Status::Ok;
        case InfoKind::ShardOwners: {
          std::vector<int> owners;
          owners.reserve(static_cast<std::size_t>(meta.shards.cells));
          for (long long s = 0; s < meta.shards.cells; ++s) {
            owners.push_back(meta.shards.owner_of(s));
          }
          out = std::move(owners);
          return Status::Ok;
        }
        case InfoKind::OwnerEpoch:
          out = meta.shards.epoch;
          return Status::Ok;
      }
      return Status::Invalid;
  });
  return traced("find_info", on_proc, id, st);
}

Status ArrayManager::verify_array(int on_proc, ArrayId id, int n_dims,
                                  const BorderSpec& expected,
                                  Indexing indexing) {
  obs::Span span(obs::Op::AmVerify, 0,
                 static_cast<std::uint64_t>(static_cast<unsigned>(on_proc)),
                 &am_service_hist());
  const Status st = [&]() -> Status {
      std::vector<int> have;
      if (Status st = with_record(on_proc, id, [&](const ArrayRecord& meta) {
            if (n_dims != static_cast<int>(meta.dims.size()) ||
                indexing != meta.indexing) {
              return Status::Invalid;
            }
            have = meta.borders;
            return Status::Ok;
          });
          !ok(st)) {
        return st;
      }

      std::vector<int> want;
      if (Status st = resolve_borders(expected, n_dims, want); !ok(st)) return st;
      if (want == have) return Status::Ok;

      // copy_local updates every replica's metadata and reallocates any
      // sections it holds, wherever migration has put them; no migration
      // may ship a section with the old borders meanwhile.
      std::vector<std::unique_ptr<ShardRoute>> retired;
      {
        const MoverTicket ticket(*this);
        std::lock_guard<std::mutex> mig(migrate_mutex_);
        for (int p = 0; p < machine_.nprocs(); ++p) {
          copy_local(p, id, want, retired);
        }
      }
      drain_readers();  // then the old routes and storage go
      return Status::Ok;
  }();
  return traced("verify_array", on_proc, id, st);
}

void ArrayManager::copy_local(
    int p, ArrayId id, const std::vector<int>& new_borders,
    std::vector<std::unique_ptr<ShardRoute>>& retired) {
  Node& n = node(p);
  std::lock_guard<std::mutex> lock(n.mutex);
  auto it = n.records.find(id);
  if (it == n.records.end()) return;

  ArrayRecord& r = it->second;
  // Open every owned slot before the first copy, then quiesce once for
  // all: a lock-free write that lands in a section after its copy redoes
  // itself in the new one.
  for (auto& [shard, sec] : r.sections) {
    seq_open(r.route->slots[static_cast<std::size_t>(shard)]);
  }
  if (!r.sections.empty()) quiesce_writers(*r.route);
  for (auto& [shard, sec] : r.sections) {
    std::vector<int> new_plus = dims_plus_borders(sec.interior, new_borders);
    auto fresh = std::make_shared<LocalSection>(r.type, new_plus);
    const long long count = element_count(sec.interior);
    for (long long lin = 0; lin < count; ++lin) {
      std::vector<int> idx = delinearize(lin, sec.interior, r.indexing);
      const long long src =
          local_offset(idx, sec.interior, r.borders, r.indexing);
      const long long dst =
          local_offset(idx, sec.interior, new_borders, r.indexing);
      if (r.type == ElemType::Float64) {
        fresh->write_f64(dst, sec.storage->load_f64(src));
      } else {
        fresh->write_i32(dst, sec.storage->load_i32(src));
      }
    }
    RouteSlot& slot = r.route->slots[static_cast<std::size_t>(shard)];
    retired.emplace_back(slot.route.exchange(
        make_route(*r.route, shard, fresh, sec.interior, new_borders)
            .release(),
        std::memory_order_seq_cst));
    seq_close(slot);
    sec.storage = std::move(fresh);
    sec.dims_plus = std::move(new_plus);
  }
  r.borders = new_borders;
  r.dims_plus = dims_plus_borders(r.local_dims, new_borders);
}

Status ArrayManager::migrate_shard(int on_proc, ArrayId id, long long shard,
                                   int to_proc) {
  obs::Span span(obs::Op::AmMigrate, 0,
                 static_cast<std::uint64_t>(static_cast<unsigned>(on_proc)),
                 &am_service_hist());
  const Status st = [&]() -> Status {
      if (!machine_.valid_proc(on_proc) || !machine_.valid_proc(to_proc)) {
        return Status::Invalid;
      }

      // Repartition barrier: let pinners already waiting in first, then
      // block new layout pins and drain existing ones.  Runs before
      // migrate_mutex_ is taken, so one array's pin wait never stalls other
      // arrays' migrations.  The hand-over has no deadline of its own: it
      // ends once the migrations already in flight end (each bounded by
      // its own drain) and the waiting pinners hold their pins.  The drain
      // is bounded from then on, so a migration requested from code that
      // itself pins this array (which could never be satisfied) fails
      // instead of self-deadlocking.
      {
        std::unique_lock<std::mutex> lock(pin_mutex_);
        // Back-to-back migrations would otherwise keep migrating_ non-zero
        // and starve a waiting pinner indefinitely.
        wait_for(lock, pin_cv_, pin_waiters_,
                 std::chrono::steady_clock::time_point::max(),
                 [&] { return !pin_wanted_.contains(id); });
        ++migrating_[id];
        const bool drained = wait_for(
            lock, pin_cv_, pin_waiters_,
            std::chrono::steady_clock::now() + kPinDrainTimeout, [&] {
              auto it = pins_.find(id);
              return it == pins_.end() || it->second == 0;
            });
        if (!drained) {
          auto it = migrating_.find(id);
          if (it != migrating_.end() && --it->second == 0) {
            migrating_.erase(it);
          }
          ready_all(pin_waiters_);
          lock.unlock();
          pin_cv_.notify_all();
          return Status::Error;
        }
      }
      const Status mst = [&]() -> Status {
        // Serialise migrations so owner-table epochs are totally ordered
        // and any replica's table is current between migrations.  The
        // ticket is taken past the pin barrier: a section request from a
        // pinned call must never wait on a migration that waits on it.
        const MoverTicket ticket(*this);
        std::lock_guard<std::mutex> mig(migrate_mutex_);

        ArrayRecord meta;
        if (Status st = with_record(on_proc, id, [&](const ArrayRecord& r) {
              if (shard < 0 || shard >= r.shards.cells) return Status::Invalid;
              meta = replica_of(r);
              return Status::Ok;
            });
            !ok(st)) {
          return st;
        }
        const int from = meta.shards.owner_of(shard);
        // Idempotent: a faulted retry of a migration that already completed
        // finds the shard at its destination and succeeds with no work.
        if (from == to_proc) return Status::Ok;
        // 1. Quiesce the shard at the source: locked element and section
        //    traffic sees `migrating` and backs off.  The slot's sequence
        //    stays odd until step 2 republishes it, so lock-free requests
        //    fall back and wait too, and after the barrier no lock-free
        //    write can still be missed by the copy.
        RouteSlot& slot = meta.route->slots[static_cast<std::size_t>(shard)];
        std::shared_ptr<LocalSection> source;
        bool racing = false;
        std::vector<int> interior;
        std::vector<int> sec_plus;
        {
          Node& src = node(from);
          std::lock_guard<std::mutex> lock(src.mutex);
          auto it = src.records.find(id);
          if (it == src.records.end()) return Status::NotFound;
          auto sit = it->second.sections.find(shard);
          if (sit == it->second.sections.end()) return Status::Error;
          ShardSection& sec = sit->second;
          sec.migrating = true;
          racing = quiesce_slot(*meta.route, slot);
          interior = sec.interior;
          sec_plus = sec.dims_plus;
          source = sec.storage;
        }

        // 2. Install at the destination: one counted copy of the whole
        //    section (interior + borders), creating a replica record there
        //    if the destination has never seen this array.  The slot now
        //    routes there; its old route is retired until readers drain.
        std::unique_ptr<ShardRoute> old_route;
        {
          Node& dst = node(to_proc);
          std::lock_guard<std::mutex> lock(dst.mutex);
          auto [it, inserted] = dst.records.try_emplace(id);
          if (inserted) it->second = meta;
          ShardSection sec;
          sec.interior = std::move(interior);
          sec.dims_plus = sec_plus;
          sec.storage =
              std::make_shared<LocalSection>(it->second.type, sec_plus);
          sec.storage->copy_from(*source, racing);
          auto moved = std::make_unique<ShardRoute>(
              *slot.route.load(std::memory_order_relaxed));
          moved->storage = sec.storage;
          moved->base = sec.storage->data();
          old_route.reset(
              slot.route.exchange(moved.release(), std::memory_order_seq_cst));
          slot.owner.store(to_proc, std::memory_order_relaxed);
          meta.route->replica[static_cast<std::size_t>(to_proc)].store(
              true, std::memory_order_relaxed);
          seq_close(slot);
          it->second.sections[shard] = std::move(sec);
        }

        // 3. Flip every replica's owner table to the new epoch.  After
        //    this, any requester — however stale its own copy — reaches a
        //    replica that routes it to the destination.
        const std::uint64_t new_epoch = meta.shards.epoch + 1;
        for (int p = 0; p < machine_.nprocs(); ++p) {
          Node& n = node(p);
          std::lock_guard<std::mutex> lock(n.mutex);
          auto it = n.records.find(id);
          if (it == n.records.end()) continue;
          ShardMap& m = it->second.shards;
          m.owners[static_cast<std::size_t>(shard) & (m.owners.size() - 1)] =
              to_proc;
          m.epoch = new_epoch;
        }

        // 4. Release the source section last: a requester arriving here
        //    before the erase sees the quiesce flag plus a fresher table
        //    and follows the shard to its new home.
        {
          Node& src = node(from);
          std::lock_guard<std::mutex> lock(src.mutex);
          auto it = src.records.find(id);
          if (it != src.records.end()) it->second.sections.erase(shard);
        }
        drain_readers();
        old_route.reset();

        if (obs::enabled()) {
          span.set_arg1(source->bytes());
          am_shard_migrations().add();
          am_migrated_bytes().add(source->bytes());
        }
        return Status::Ok;
      }();
      {
        std::lock_guard<std::mutex> lock(pin_mutex_);
        auto it = migrating_.find(id);
        if (it != migrating_.end() && --it->second == 0) migrating_.erase(it);
        ready_all(pin_waiters_);
      }
      pin_cv_.notify_all();
      // Completion signal (success or failure): requesters parked on the
      // quiesced shard re-check their route now instead of timing out.
      {
        std::lock_guard<std::mutex> lock(route_mutex_);
        route_gen_.fetch_add(1, std::memory_order_release);
        ready_all(route_waiters_);
      }
      route_cv_.notify_all();
      return mst;
  }();
  return traced("migrate_shard", on_proc, id, st);
}

Status ArrayManager::propose_rebalance(int on_proc, ArrayId id,
                                       double max_ratio,
                                       std::vector<ShardMove>& moves_out) {
  moves_out.clear();
  if (max_ratio <= 0.0) return Status::Invalid;
  if (max_ratio < 1.0) max_ratio = 1.0;
  long long cells = 0;
  std::vector<std::uint64_t> traffic;
  std::vector<int> owner;
  std::map<int, std::uint64_t> load;
  if (Status st = with_record(on_proc, id, [&](const ArrayRecord& meta) {
        cells = meta.shards.cells;
        for (int p : meta.pool) load[p] = 0;
        for (long long s = 0; s < cells; ++s) {
          traffic.push_back(meta.stats->read(static_cast<std::size_t>(s)));
          owner.push_back(meta.shards.owner_of(s));
          load[owner.back()] += traffic.back();
        }
        return Status::Ok;
      });
      !ok(st)) {
    return st;
  }

  // Greedy: while the hottest processor exceeds the coldest by more than
  // max_ratio, move its hottest shard that actually helps.  Bounded by the
  // shard count — each shard moves at most once per proposal.
  for (long long iter = 0; iter < cells; ++iter) {
    int pmax = -1;
    int pmin = -1;
    for (const auto& [p, l] : load) {
      if (pmax < 0 || l > load[pmax]) pmax = p;
      if (pmin < 0 || l < load[pmin]) pmin = p;
    }
    if (pmax < 0 || pmax == pmin) break;
    if (static_cast<double>(load[pmax]) <=
        max_ratio * static_cast<double>(load[pmin])) {
      break;
    }
    long long best = -1;
    for (long long s = 0; s < cells; ++s) {
      const std::size_t i = static_cast<std::size_t>(s);
      if (owner[i] != pmax || traffic[i] == 0) continue;
      // Moving must strictly improve this pair, or the proposal oscillates.
      if (load[pmin] + traffic[i] >= load[pmax]) continue;
      if (best < 0 ||
          traffic[i] > traffic[static_cast<std::size_t>(best)]) {
        best = s;
      }
    }
    if (best < 0) break;
    const std::size_t bi = static_cast<std::size_t>(best);
    moves_out.push_back(ShardMove{best, pmax, pmin});
    load[pmax] -= traffic[bi];
    load[pmin] += traffic[bi];
    owner[bi] = pmin;
  }
  return Status::Ok;
}

Status ArrayManager::rebalance(int on_proc, ArrayId id, double max_ratio,
                               int* moved_out) {
  obs::Span span(obs::Op::AmRebalance, 0,
                 static_cast<std::uint64_t>(static_cast<unsigned>(on_proc)),
                 &am_service_hist());
  const Status st = [&]() -> Status {
      if (moved_out != nullptr) *moved_out = 0;
      std::shared_ptr<ShardStats> stats;
      if (Status st = with_record(on_proc, id, [&](const ArrayRecord& meta) {
            stats = meta.stats;
            return Status::Ok;
          });
          !ok(st)) {
        return st;
      }
      const double ratio = max_ratio > 0.0 ? max_ratio : env_rebalance_ratio();
      if (ratio <= 0.0) return Status::Ok;  // rebalancing disabled

      std::vector<ShardMove> moves;
      if (Status st = propose_rebalance(on_proc, id, ratio, moves); !ok(st)) {
        return st;
      }
      for (const ShardMove& m : moves) {
        if (Status st = migrate_shard(on_proc, id, m.shard, m.to); !ok(st)) {
          return st;
        }
      }
      // The traffic window restarts after every pass, so stale history
      // cannot pin a shard to a processor it no longer favours.
      stats->reset();
      if (moved_out != nullptr) *moved_out = static_cast<int>(moves.size());
      if (obs::enabled()) {
        span.set_arg1(moves.size());
        am_rebalances().add();
      }
      return Status::Ok;
  }();
  return traced("rebalance", on_proc, id, st);
}

void ArrayManager::pin_layout(ArrayId id) {
  std::unique_lock<std::mutex> lock(pin_mutex_);
  if (!migrating_.contains(id)) {
    ++pins_[id];
    return;
  }
  // Announce the wait: a migration arriving from now on lets this pin in
  // before it blocks pins again.
  ++pin_wanted_[id];
  wait_for(lock, pin_cv_, pin_waiters_,
           std::chrono::steady_clock::time_point::max(),
           [&] { return !migrating_.contains(id); });
  ++pins_[id];
  auto it = pin_wanted_.find(id);
  if (--it->second == 0) pin_wanted_.erase(it);
  ready_all(pin_waiters_);
  lock.unlock();
  pin_cv_.notify_all();
}

void ArrayManager::unpin_layout(ArrayId id) {
  {
    std::lock_guard<std::mutex> lock(pin_mutex_);
    auto it = pins_.find(id);
    if (it != pins_.end() && --it->second == 0) pins_.erase(it);
    ready_all(pin_waiters_);
  }
  pin_cv_.notify_all();
}

std::size_t ArrayManager::records_on(int p) const {
  const Node& n = node(p);
  std::lock_guard<std::mutex> lock(n.mutex);
  return n.records.size();
}

std::size_t ArrayManager::local_bytes_on(int p) const {
  const Node& n = node(p);
  std::lock_guard<std::mutex> lock(n.mutex);
  std::size_t bytes = 0;
  for (const auto& [id, r] : n.records) {
    for (const auto& [shard, sec] : r.sections) bytes += sec.storage->bytes();
  }
  return bytes;
}

std::vector<ArrayManager::ShardTrafficRow> ArrayManager::hottest_shards(
    std::size_t limit) const {
  std::vector<ShardTrafficRow> rows;
  std::set<ArrayId> seen;
  for (int p = 0; p < machine_.nprocs(); ++p) {
    const Node& n = node(p);
    std::lock_guard<std::mutex> lock(n.mutex);
    for (const auto& [id, r] : n.records) {
      if (!seen.insert(id).second) continue;
      for (long long s = 0; s < r.shards.cells; ++s) {
        const std::uint64_t b = r.stats->read(static_cast<std::size_t>(s));
        if (b == 0) continue;
        ShardTrafficRow row;
        row.id = id;
        row.shard = s;
        row.owner = r.shards.owner_of(s);
        row.bytes = b;
        rows.push_back(std::move(row));
      }
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const ShardTrafficRow& a, const ShardTrafficRow& b) {
              return a.bytes > b.bytes;
            });
  if (rows.size() > limit) rows.resize(limit);
  return rows;
}

}  // namespace tdp::dist
