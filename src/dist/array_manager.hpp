// The array manager (§3.2.2.2, §5.1): runtime support for distributed
// arrays.
//
// The array manager consists of one manager per virtual processor.  All
// requests to create or manipulate distributed arrays are made *on* some
// processor (in the thesis, via a server request to the local array-manager
// process) and the local manager communicates with the managers on other
// processors as needed: create_array issues create_local on every owner,
// read_element routes to the owner of the element, verify_array issues
// copy_local everywhere, and so on (§5.1.1's request taxonomy).
//
// In this in-process reproduction the request round-trip is performed by
// the requesting process entering the target node-manager's monitor
// directly; the request taxonomy, placement rules and observable semantics
// (§3.2.1.5) are unchanged:
//   * create_array may be made on any processor;
//   * every other global operation may be made on any owner processor or on
//     the creating processor, with identical results anywhere;
//   * find_local requires a local view and works only on owner processors.
//
// Placement is no longer a static block map.  Each array is split into
// S shards — one per grid cell, where the cell count may exceed the
// processor count (oversharding) — and a replicated, versioned owner table
// maps shard → processor.  Every routing decision (element access, section
// reads/writes, find_local) translates through the table, so the paper's
// owner-side semantics are preserved while shards can migrate between
// processors at runtime, driven by per-shard traffic counters.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string_view>
#include <vector>

#include "dist/local_section.hpp"
#include "dist/types.hpp"
#include "obs/trace.hpp"
#include "sched/sched.hpp"
#include "util/status.hpp"
#include "vp/machine.hpp"
#include "vp/payload.hpp"

namespace tdp::dist {

/// The replicated, versioned owner table: shard rank → owning processor.
/// The table is sized to the next power of two above the shard count so the
/// lookup is one masked index; every node record of an array carries its
/// own copy, and migrations bump `epoch` on every replica — a replica whose
/// epoch lags is stale and routes to a processor that answers "moved".
struct ShardMap {
  long long cells = 1;       ///< shard count (= grid cells)
  std::uint64_t epoch = 0;   ///< bumped on every migration
  std::vector<int> owners;   ///< size = next power of two >= cells

  int owner_of(long long shard) const {
    return owners[static_cast<std::size_t>(shard) &
                  (owners.size() - 1)];
  }

  /// Builds the initial table: shard s → pool[s mod pool.size()], i.e. the
  /// prefix of the processor list when cells <= pool size (the §3.2.1.1
  /// placement), wrapping round-robin when oversharded.
  static ShardMap initial(long long cells, const std::vector<int>& pool);
};

/// Per-shard traffic counters, shared by every replica of an array's record
/// (element and section bytes accrue at the owner-side access).  The
/// repartitioner consumes these to propose moves.
///
/// A charge costs no atomic read-modify-write: each thread holds one of
/// kSlots process-wide tally slots, claimed on its first charge and handed
/// back when it exits, and charges the row of its slot, which no other
/// thread writes, with a plain load and store.  Threads beyond the slot
/// count, and arrays with too many shards to give every slot a row, share
/// one row charged with fetch_add.  read() sums the rows; reset() records a
/// baseline instead of zeroing, so an owner's store in flight cannot bring
/// back the bytes it drops.
class ShardStats {
 public:
  /// Tally slots in the process.
  static constexpr unsigned kSlots = 16;

  explicit ShardStats(std::size_t n);

  /// Bytes charged to `shard` since the last reset().
  std::uint64_t read(std::size_t shard) const;
  void add(std::size_t shard, std::uint64_t n);
  /// Starts a new traffic window.
  void reset();

 private:
  /// One cache line of cells: rows never share a line.
  struct alignas(64) Line {
    std::atomic<std::uint64_t> cell[8];
  };

  void add_shared(std::size_t shard, std::uint64_t n);
  std::atomic<std::uint64_t>& cell(unsigned row, std::size_t shard) const {
    return lines_[row * row_lines_ + shard / 8].cell[shard % 8];
  }
  std::uint64_t sum(std::size_t shard) const;

  std::size_t n_;
  std::size_t row_lines_;  ///< lines per row
  unsigned rows_;          ///< private rows; row rows_ is the shared one
  std::unique_ptr<Line[]> lines_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> base_;  ///< reset baselines
};

/// One shard's storage on its owner: the cell's actual interior (the
/// trailing cell of an unevenly-blocked dimension is smaller than the
/// uniform block), the storage shape including borders, and the quiesce
/// flag a migration raises while the payload is in flight.
struct ShardSection {
  std::vector<int> interior;   ///< this cell's interior dimensions
  std::vector<int> dims_plus;  ///< interior + borders
  std::shared_ptr<LocalSection> storage;
  bool migrating = false;
};

/// The flat, lock-free route to an array's shards and one shard's route
/// in it (DESIGN §12 "Routing"), defined with the fast path in
/// array_manager.cpp.
struct RouteBlock;
struct ShardRoute;

/// Internal representation of a distributed array (§5.1.3).  One copy per
/// processor that owns at least one shard, plus one on the creating
/// processor (and on any processor a shard has migrated to).  The thesis
/// stores some derivable quantities redundantly ("compute once and store");
/// we mirror that.
struct ArrayRecord {
  ArrayId id;
  ElemType type = ElemType::Float64;
  std::vector<int> dims;         ///< global dimensions
  std::vector<int> processors;   ///< initial owner per shard, grid order
  std::vector<int> pool;         ///< distinct processors eligible to own
  std::vector<int> grid_dims;    ///< processor-grid dimensions
  std::vector<int> local_dims;   ///< uniform block dims (ceil-div)
  std::vector<int> borders;      ///< 2*ndims border sizes
  std::vector<int> dims_plus;    ///< uniform block dims including borders
  Indexing indexing = Indexing::RowMajor;
  Indexing grid_indexing = Indexing::RowMajor;
  ShardMap shards;               ///< this replica's owner table
  std::map<long long, ShardSection> sections;  ///< owned shards only
  std::shared_ptr<ShardStats> stats;           ///< shared across replicas
  RouteBlock* route = nullptr;  ///< shared across replicas; outlives them
};

/// A repartitioner proposal: move `shard` from its current owner to `to`.
struct ShardMove {
  long long shard = -1;
  int from = -1;
  int to = -1;
};

/// The distributed array manager for a whole machine.
class ArrayManager {
 public:
  /// `border_lookup` resolves foreign_borders requests (§3.2.1.3); it may be
  /// empty, in which case foreign_borders specs fail with Status::Invalid.
  explicit ArrayManager(vp::Machine& machine,
                        BorderLookup border_lookup = nullptr);
  ~ArrayManager();

  ArrayManager(const ArrayManager&) = delete;
  ArrayManager& operator=(const ArrayManager&) = delete;

  vp::Machine& machine() { return machine_; }

  /// Replaces the foreign-border resolver (wired up by core::Runtime).
  void set_border_lookup(BorderLookup lookup);

  /// Trace hook: when set, every library-procedure request is reported on
  /// completion — the "am_debug" version of the array manager, which
  /// "produces a trace message for each operation it performs" (§B.3).
  /// Pass nullptr to return to the silent ("am") version.
  using TraceFn = std::function<void(std::string_view op, int on_proc,
                                     ArrayId id, Status status)>;
  void set_trace(TraceFn trace);

  // --- Library procedures (§4.2), each made "on" a processor. -------------

  /// am_user:create_array.  Creates the whole distributed array with one
  /// request; local sections are zero-initialised.  When the decomposition
  /// yields more cells than processors, shards wrap round-robin onto the
  /// list.  TDP_DIST_SHARDS=N oversubscribes default 1-D block
  /// decompositions to N shards (when N is a valid grid for the extent).
  Status create_array(int on_proc, ElemType type, const std::vector<int>& dims,
                      const std::vector<int>& processors,
                      const std::vector<DimSpec>& distrib,
                      const BorderSpec& borders, Indexing indexing,
                      ArrayId& id_out);

  /// am_user:free_array.  Deletes the entire array; subsequent references
  /// fail with Status::NotFound.
  Status free_array(int on_proc, ArrayId id);

  /// am_user:read_element by global indices.
  Status read_element(int on_proc, ArrayId id, std::span<const int> indices,
                      Scalar& out);

  /// am_user:write_element by global indices; `value` must be numeric and is
  /// coerced to the array's element type.
  Status write_element(int on_proc, ArrayId id, std::span<const int> indices,
                       const Scalar& value);

  /// am_user:find_local.  Only meaningful on a processor that owns at least
  /// one shard; returns the lowest-ranked owned shard's section (identical
  /// to the historical one-section-per-owner behaviour for un-migrated
  /// arrays).  A shard held quiesced by an in-flight migration is waited
  /// out, never handed to the caller.
  Status find_local(int on_proc, ArrayId id, LocalSectionView& out);

  /// find_local for one specific shard; NotFound when `on_proc` does not
  /// currently own it.  Like find_local, waits out an in-flight migration
  /// of the shard.
  Status find_local_shard(int on_proc, ArrayId id, long long shard,
                          LocalSectionView& out);

  /// am_user:find_info.
  Status find_info(int on_proc, ArrayId id, InfoKind which, InfoValue& out);

  /// Shard-addressed section read: snapshots shard `shard`'s interior as
  /// one immutable payload (elements in storage order, borders stripped),
  /// wherever it lives.  The bulk section-shipping path: the returned
  /// payload is refcounted, so forwarding it to any number of consumers
  /// costs zero further copies.  When `on_proc`'s replica routes to a
  /// processor that no longer owns the shard, the request follows the
  /// fresher owner table there (counted in am.shard_forwards).
  Status read_shard(int on_proc, ArrayId id, long long shard,
                    vp::Payload& out);

  /// Shard-addressed section write; the inverse of read_shard.  `data`
  /// must hold exactly interior_count * elem_size bytes in storage order
  /// (Status::Invalid otherwise); borders are untouched.
  Status write_shard(int on_proc, ArrayId id, long long shard,
                     const vp::Payload& data);

  /// Resolves the current owner of `shard` as `on_proc`'s replica sees it.
  Status shard_owner(int on_proc, ArrayId id, long long shard,
                     int& owner_out, std::uint64_t& epoch_out);

  /// am_user:verify_array (§4.2.7): checks the indexing type and expected
  /// borders; on a border mismatch, reallocates every local section with the
  /// expected borders and copies all interior data.
  Status verify_array(int on_proc, ArrayId id, int n_dims,
                      const BorderSpec& expected, Indexing indexing);

  // --- Migration and repartitioning. --------------------------------------

  /// Moves shard `shard` to processor `to_proc`: quiesce the shard,
  /// install a copy of its storage at the destination, flip every
  /// replica's owner table to a new epoch, then release the source.
  /// Idempotent: migrating a shard to its current owner is Status::Ok with
  /// no work, so faulted retries are always safe.  Waits for in-flight
  /// distributed calls that pinned the array's layout; the wait is bounded,
  /// so a migration requested from code that itself pins this array (which
  /// could never proceed) fails with Status::Error instead of
  /// self-deadlocking.
  Status migrate_shard(int on_proc, ArrayId id, long long shard, int to_proc);

  /// Computes moves that bring per-processor traffic (per the shard
  /// counters accumulated since the last rebalance) within `max_ratio`
  /// between the most- and least-loaded processors of the array's pool.
  /// Pure planning — nothing moves.
  Status propose_rebalance(int on_proc, ArrayId id, double max_ratio,
                           std::vector<ShardMove>& moves_out);

  /// propose_rebalance + migrate_shard for each move + reset of the
  /// traffic window.  `moved_out` (optional) reports how many shards moved.
  /// `max_ratio` <= 0 uses TDP_DIST_REBALANCE (no-op when that is unset
  /// or 0 — rebalancing stays opt-in).
  Status rebalance(int on_proc, ArrayId id, double max_ratio = 0.0,
                   int* moved_out = nullptr);

  /// TDP_DIST_REBALANCE as a double, 0 when unset/invalid (disabled).
  static double env_rebalance_ratio();

  // --- Repartition barrier (distributed-call integration). ----------------

  /// Holds the array's placement fixed: migrate_shard blocks until every
  /// pin is released.  A pin waits out the migrations in flight, and a
  /// migration that arrives while it waits lets it in first.
  /// core::DistributedCall pins the arrays its copies resolve with
  /// find_local for the duration of the call, so a rebalance can never
  /// move a section out from under a running program.  A task on a steal
  /// worker parks in each of these waits instead of blocking its worker
  /// thread.
  void pin_layout(ArrayId id);
  void unpin_layout(ArrayId id);

  // --- Diagnostics. --------------------------------------------------------

  /// Number of arrays currently known on processor p (records, owned or
  /// creator-side).
  std::size_t records_on(int p) const;

  /// Count of storage bytes currently allocated for local sections on p.
  std::size_t local_bytes_on(int p) const;

  /// One row of the live shard-traffic probe (obs::Telemetry "dist" plane).
  struct ShardTrafficRow {
    ArrayId id;
    long long shard = 0;
    int owner = -1;
    std::uint64_t bytes = 0;  ///< cumulative traffic this window
  };

  /// The hottest `limit` shards across all live arrays, by window traffic.
  std::vector<ShardTrafficRow> hottest_shards(std::size_t limit) const;

 private:
  struct Node {
    mutable std::mutex mutex;
    std::map<ArrayId, ArrayRecord> records;
    std::uint64_t next_seq = 0;
  };

  Node& node(int p) { return nodes_[static_cast<std::size_t>(p)]; }
  const Node& node(int p) const {
    return nodes_[static_cast<std::size_t>(p)];
  }

  /// Runs `fn(ArrayRecord&)` on `on_proc`'s record of `id` under that
  /// node's lock and returns its status; Status::Invalid for a bad
  /// processor, Status::NotFound when the processor has no record.
  template <class Fn>
  Status with_record(int on_proc, ArrayId id, Fn fn);

  /// Resolves a BorderSpec to concrete 2*ndims sizes.
  Status resolve_borders(const BorderSpec& spec, int ndims,
                         std::vector<int>& out) const;

  /// create_local: installs a record on p with storage for `owned` shards
  /// and fills their slots in the (not yet published) route block.
  void create_local(int p, const ArrayRecord& meta,
                    const std::vector<long long>& owned);

  /// Allocates a zeroed section for `shard` per the record's geometry.
  ShardSection make_section(const ArrayRecord& meta, long long shard) const;

  /// copy_local (§5.1.1): reallocates p's shard sections with `new_borders`
  /// and copies the interiors; updates p's record metadata.  The replaced
  /// routes are appended to `retired` for the caller to delete once
  /// readers have drained.
  void copy_local(int p, ArrayId id, const std::vector<int>& new_borders,
                  std::vector<std::unique_ptr<ShardRoute>>& retired);

  /// find_local (no `shard`: the lowest-ranked owned shard) and
  /// find_local_shard: waits out an in-flight migration of the section.
  Status find_section(int on_proc, ArrayId id, std::optional<long long> shard,
                      LocalSectionView& out);

  /// The locked access core: section requests, and the fallback of element
  /// requests whenever read_fast/write_fast cannot prove their route safe
  /// (an odd or moved sequence, an unpublished block, a processor without
  /// a record).  Under `on_proc`'s lock it finds the record, asks
  /// `locate(const ArrayRecord&)` for the shard rank (< 0 means
  /// Status::Invalid) and reads that shard's owner and epoch; when
  /// `on_proc` owns the shard and it is not quiesced, `fn` runs right there.
  /// Otherwise it locks the owner, following a fresher replica's owner and
  /// epoch for this shard when the shard has moved (stale-epoch forwarding)
  /// and waiting while a migration holds it quiesced.  `fn(ArrayRecord&,
  /// ShardSection&, long long shard)` runs under the owner node's mutex,
  /// which is the lock that guards the shard's route slot; it must not
  /// block.  A mutation that copies, snapshots or replaces the shard's
  /// storage must open the slot and issue the process barrier first
  /// (quiesce_slot), so that lock-free writes either land before it or
  /// redo themselves here after it.  Nothing on the route allocates.
  template <class Locate, class Fn>
  Status with_shard(int on_proc, ArrayId id, Locate locate, Fn fn);

  /// The lock-free element read: routes through the array's route block
  /// and validates the shard's sequence around the load.  False when the
  /// route cannot be proven safe; the caller then runs with_shard.
  /// Otherwise the request is done, `st` holds its status and `moved` the
  /// bytes charged.  No lock, no atomic read-modify-write, no observability.
  bool read_fast(int on_proc, ArrayId id, std::span<const int> indices,
                 Scalar& out, Status& st, std::size_t& moved);

  /// The lock-free element write: routes like read_fast, stores, and
  /// re-checks the shard's sequence after the store.  False when the route
  /// cannot be proven safe or the sequence moved; the caller then runs
  /// with_shard, which redoes the write.  Otherwise as read_fast.
  bool write_fast(int on_proc, ArrayId id, std::span<const int> indices,
                  const Scalar& value, Status& st, std::size_t& moved);

  /// read_element and write_element with everything the lean path skips:
  /// the span and the trace record, the fast attempt unless `tried_fast`,
  /// and the locked fallback.
  Status read_element_full(int on_proc, ArrayId id,
                           std::span<const int> indices, Scalar& out,
                           bool tried_fast);
  Status write_element_full(int on_proc, ArrayId id,
                            std::span<const int> indices, const Scalar& value,
                            bool tried_fast);

  /// True when obs is off and no trace hook is set: element requests then
  /// skip the span, the service histogram and traced().
  bool silent() const {
    return !obs::enabled() && !trace_set_.load(std::memory_order_relaxed);
  }

  /// The published route block of `id`, or nullptr when there is none or
  /// `on_proc` (a valid processor) holds no record of the array.
  /// Lock-free; the caller must be inside a fast-path read section.
  RouteBlock* find_route(int on_proc, ArrayId id) const;

  /// Directory insert and removal, serialised by dir_mutex_.  Never called
  /// under a node lock.
  void publish_route(std::unique_ptr<RouteBlock> block);
  std::unique_ptr<RouteBlock> unpublish_route(ArrayId id);

  /// Returns once every fast-path request that could still hold a pointer
  /// unpublished before the call has finished.
  static void drain_readers();

  /// The current route generation (bumped at every migration completion).
  std::uint64_t route_gen() const;

  /// Waits until the route generation advances past `seen_gen` or
  /// `deadline` passes; false on timeout.  Requesters parked on a quiesced
  /// shard wait here instead of polling; a task on a steal worker parks.
  bool wait_route_change(
      std::uint64_t seen_gen,
      std::chrono::steady_clock::time_point deadline) const;

  /// The interior walk behind read_shard and write_shard; `racing` when
  /// lock-free writes may still land (quiesce_writers).
  Status read_shard_locked(const ArrayRecord& rec, const ShardSection& sec,
                           bool racing, vp::Payload& out);
  Status write_shard_locked(ArrayRecord& rec, ShardSection& sec,
                            const vp::Payload& data);

  /// Reports `status`, tracing the request first when tracing is on.
  Status traced(std::string_view op, int on_proc, ArrayId id,
                Status status) const;

  vp::Machine& machine_;
  BorderLookup border_lookup_;
  TraceFn trace_;
  mutable std::mutex trace_mutex_;
  /// trace_ != nullptr, readable without trace_mutex_: the silent version
  /// never takes the lock.
  std::atomic<bool> trace_set_{false};
  std::vector<Node> nodes_;

  /// The route directory: an open-addressed table of route blocks keyed by
  /// ArrayId, read without a lock and replaced by a larger one on growth.
  struct RouteDir;
  std::atomic<RouteDir*> routes_;
  std::mutex dir_mutex_;

  /// Repartition-barrier state: per-array pin counts and, per array, the
  /// count of migrations in flight (a count, not a set: concurrent
  /// migrations of one array overlap at the barrier before serialising on
  /// migrate_mutex_, and pins must stay blocked until the last one ends).
  /// Pins block migrations; migrations block new pins (but never
  /// element/section traffic, which quiesces per shard).  A migration
  /// that finds pinners waiting (pin_wanted_) waits for them to pin
  /// first, so back-to-back migrations cannot starve a pin.
  std::mutex pin_mutex_;
  std::condition_variable pin_cv_;
  std::vector<sched::TaskRef> pin_waiters_;  ///< parked tasks
  std::map<ArrayId, int> pins_;
  std::map<ArrayId, int> migrating_;
  std::map<ArrayId, int> pin_wanted_;  ///< pinners waiting on a migration
  /// Serialises migrations so epoch bumps are totally ordered, and keeps
  /// border changes and frees out of a migration's way.  Taken only after
  /// the pin barrier clears, so one array's pin wait never stalls other
  /// arrays' migrations.
  std::mutex migrate_mutex_;
  /// Migration-completion signal: every finished migration (success or
  /// failure) bumps the generation and wakes requesters parked on a
  /// quiesced shard, replacing any fixed-window polling.  The generation
  /// is atomic so the access hot path reads it without locking; the mutex
  /// serialises only the park/notify handshake (the bump happens under it,
  /// so a completion cannot slip between a waiter's predicate check and
  /// its wait).
  mutable std::mutex route_mutex_;
  mutable std::condition_variable route_cv_;
  mutable std::vector<sched::TaskRef> route_waiters_;  ///< parked tasks
  std::atomic<std::uint64_t> route_gen_{0};

  /// Mover hand-off.  Node mutexes have no hand-off of their own, so
  /// back-to-back section requests on one shard would starve a migration
  /// or a border change, which need the same owner's lock.  A mover
  /// (migrate_shard past its pin barrier, verify_array changing borders)
  /// holds a MoverTicket while it queues for and holds migrate_mutex_ and
  /// the node locks; a section request first waits until as many movers
  /// have finished as were queued when it arrived (yield_to_movers).
  /// Movers that queue later never hold it up, so neither side's wait is
  /// unbounded.  Finishing movers signal through route_mutex_/route_cv_.
  class MoverTicket;
  void yield_to_movers() const;
  std::atomic<std::uint64_t> movers_queued_{0};
  std::atomic<std::uint64_t> movers_done_{0};
};

}  // namespace tdp::dist
