#include "dist/array_manager.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"

namespace tdp::dist {

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
  return out;
}

/// Charges an owner-side access of `bytes` to the shard's traffic counter
/// and, when observability is on, to the request's span and am.bytes_moved.
void charge(ArrayRecord& rec, long long shard, std::uint64_t bytes,
            obs::Span& span) {
  rec.stats->add(static_cast<std::size_t>(shard), bytes);
  if (obs::enabled()) {
    span.set_arg1(bytes);
    am_bytes_moved().add(bytes);
  }
}

}  // namespace

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
      nodes_(static_cast<std::size_t>(machine.nprocs())) {
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

      std::map<int, std::vector<long long>> owned;
      for (long long s = 0; s < cells; ++s) {
        owned[meta.shards.owner_of(s)].push_back(s);
      }
      for (const auto& [p, shards] : owned) create_local(p, meta, shards);
      if (owned.find(on_proc) == owned.end()) {
        create_local(on_proc, meta, {});
      }

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
  for (long long s : owned) record.sections[s] = make_section(meta, s);
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
      if (Status st = with_record(on_proc, id,
                                  [](ArrayRecord&) { return Status::Ok; });
          !ok(st)) {
        return st;
      }
      // Migration may have spread replicas anywhere; sweep every node.
      for (int p = 0; p < machine_.nprocs(); ++p) {
        Node& n = node(p);
        std::lock_guard<std::mutex> lock(n.mutex);
        n.records.erase(id);
      }
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
  return route_cv_.wait_until(lock, deadline, [&] {
    return route_gen_.load(std::memory_order_acquire) != seen_gen;
  });
}

template <class Locate, class Fn>
Status ArrayManager::with_shard(int on_proc, ArrayId id, Locate locate,
                                Fn fn) {
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

Status ArrayManager::read_element(int on_proc, ArrayId id,
                                  std::span<const int> indices, Scalar& out) {
  obs::Span span(obs::Op::AmRead, 0,
                 static_cast<std::uint64_t>(static_cast<unsigned>(on_proc)),
                 &am_service_hist());
  const Status st = with_shard(
      on_proc, id, element_shard(indices),
      [&](ArrayRecord& rec, ShardSection& sec, long long shard) {
        const long long off = element_offset(
            indices, rec.local_dims, sec.interior, rec.borders, rec.indexing);
        if (rec.type == ElemType::Float64) {
          out = sec.storage->read_f64(off);
        } else {
          out = sec.storage->read_i32(off);
        }
        charge(rec, shard, elem_size(rec.type), span);
        return Status::Ok;
      });
  return traced("read_element", on_proc, id, st);
}

Status ArrayManager::write_element(int on_proc, ArrayId id,
                                   std::span<const int> indices,
                                   const Scalar& value) {
  obs::Span span(obs::Op::AmWrite, 0,
                 static_cast<std::uint64_t>(static_cast<unsigned>(on_proc)),
                 &am_service_hist());
  const Status st = with_shard(
      on_proc, id, element_shard(indices),
      [&](ArrayRecord& rec, ShardSection& sec, long long shard) {
        const long long off = element_offset(
            indices, rec.local_dims, sec.interior, rec.borders, rec.indexing);
        if (rec.type == ElemType::Float64) {
          sec.storage->write_f64(off, scalar_to_double(value));
        } else {
          sec.storage->write_i32(off, scalar_to_int(value));
        }
        charge(rec, shard, elem_size(rec.type), span);
        return Status::Ok;
      });
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
                                       const ShardSection& sec,
                                       vp::Payload& out) {
  const std::size_t esize = elem_size(rec.type);
  const long long count = element_count(sec.interior);
  std::vector<std::byte> staging(static_cast<std::size_t>(count) * esize);
  const std::byte* base = static_cast<const std::byte*>(sec.storage->data());
  if (contiguous_interior(rec.borders)) {
    std::memcpy(staging.data(), base, staging.size());
  } else {
    for (long long lin = 0; lin < count; ++lin) {
      std::vector<int> idx = delinearize(lin, sec.interior, rec.indexing);
      const long long src =
          local_offset(idx, sec.interior, rec.borders, rec.indexing);
      std::memcpy(staging.data() + static_cast<std::size_t>(lin) * esize,
                  base + static_cast<std::size_t>(src) * esize, esize);
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
  std::byte* base = static_cast<std::byte*>(sec.storage->data());
  if (contiguous_interior(rec.borders)) {
    std::memcpy(base, data.data(), data.size());
  } else {
    for (long long lin = 0; lin < count; ++lin) {
      std::vector<int> idx = delinearize(lin, sec.interior, rec.indexing);
      const long long dst =
          local_offset(idx, sec.interior, rec.borders, rec.indexing);
      std::memcpy(base + static_cast<std::size_t>(dst) * esize,
                  data.data() + static_cast<std::size_t>(lin) * esize, esize);
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
  const Status st = with_shard(
      on_proc, id, shard_in_range(shard),
      [&](ArrayRecord& rec, ShardSection& sec, long long) {
        Status st = read_shard_locked(rec, sec, out);
        if (ok(st)) charge(rec, shard, out.size(), span);
        return st;
      });
  return traced("read_shard", on_proc, id, st);
}

Status ArrayManager::write_shard(int on_proc, ArrayId id, long long shard,
                                 const vp::Payload& data) {
  obs::Span span(obs::Op::AmWriteSection, 0,
                 static_cast<std::uint64_t>(static_cast<unsigned>(on_proc)),
                 &am_service_hist());
  const Status st = with_shard(
      on_proc, id, shard_in_range(shard),
      [&](ArrayRecord& rec, ShardSection& sec, long long) {
        Status st = write_shard_locked(rec, sec, data);
        if (ok(st)) charge(rec, shard, data.size(), span);
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
      // sections it holds, wherever migration has put them.
      for (int p = 0; p < machine_.nprocs(); ++p) copy_local(p, id, want);
      return Status::Ok;
  }();
  return traced("verify_array", on_proc, id, st);
}

void ArrayManager::copy_local(int p, ArrayId id,
                              const std::vector<int>& new_borders) {
  Node& n = node(p);
  std::lock_guard<std::mutex> lock(n.mutex);
  auto it = n.records.find(id);
  if (it == n.records.end()) return;

  ArrayRecord& r = it->second;
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
        fresh->write_f64(dst, sec.storage->read_f64(src));
      } else {
        fresh->write_i32(dst, sec.storage->read_i32(src));
      }
    }
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

      // Repartition barrier: block new layout pins, drain existing ones.
      // Runs before migrate_mutex_ is taken, so one array's pin wait never
      // stalls other arrays' migrations; and the drain is bounded, so a
      // migration requested from code that itself pins this array (which
      // could never be satisfied) fails instead of self-deadlocking.
      {
        std::unique_lock<std::mutex> lock(pin_mutex_);
        ++migrating_[id];
        const bool drained = pin_cv_.wait_for(lock, kPinDrainTimeout, [&] {
          auto it = pins_.find(id);
          return it == pins_.end() || it->second == 0;
        });
        if (!drained) {
          auto it = migrating_.find(id);
          if (it != migrating_.end() && --it->second == 0) {
            migrating_.erase(it);
          }
          lock.unlock();
          pin_cv_.notify_all();
          return Status::Error;
        }
      }
      const Status mst = [&]() -> Status {
        // Serialise migrations so owner-table epochs are totally ordered
        // and any replica's table is current between migrations.
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
        // 1. Quiesce the shard at the source and borrow its storage
        //    zero-copy: element/section traffic sees `migrating` and backs
        //    off, which is what earns Payload::borrow's immutability
        //    contract.
        vp::Payload payload;
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
          interior = sec.interior;
          sec_plus = sec.dims_plus;
          payload = vp::Payload::borrow(
              sec.storage,
              static_cast<const std::byte*>(sec.storage->data()),
              sec.storage->bytes());
        }

        // 2. Install at the destination: one counted copy of the whole
        //    section (interior + borders), creating a replica record there
        //    if the destination has never seen this array.
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
          std::memcpy(sec.storage->data(), payload.data(), payload.size());
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

        if (obs::enabled()) {
          span.set_arg1(payload.size());
          am_shard_migrations().add();
          am_migrated_bytes().add(payload.size());
        }
        return Status::Ok;
      }();
      {
        std::lock_guard<std::mutex> lock(pin_mutex_);
        auto it = migrating_.find(id);
        if (it != migrating_.end() && --it->second == 0) migrating_.erase(it);
      }
      pin_cv_.notify_all();
      // Completion signal (success or failure): requesters parked on the
      // quiesced shard re-check their route now instead of timing out.
      {
        std::lock_guard<std::mutex> lock(route_mutex_);
        route_gen_.fetch_add(1, std::memory_order_release);
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
  pin_cv_.wait(lock, [&] { return migrating_.find(id) == migrating_.end(); });
  ++pins_[id];
}

void ArrayManager::unpin_layout(ArrayId id) {
  {
    std::lock_guard<std::mutex> lock(pin_mutex_);
    auto it = pins_.find(id);
    if (it != pins_.end() && --it->second == 0) pins_.erase(it);
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
