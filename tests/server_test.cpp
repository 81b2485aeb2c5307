// Tests for the array manager's server (§5.1.1): the request codec, the
// per-processor service tasks, and the request taxonomy over messages.
#include <gtest/gtest.h>

#include <cstring>

#include "dist/array_server.hpp"
#include "fault/plan.hpp"
#include "pcn/process.hpp"
#include "util/node_array.hpp"

namespace tdp::dist {
namespace {

/// A request creating a block-distributed array of `n` doubles over
/// processors 0..procs-1.
Request create_request(int n, int procs) {
  Request req;
  req.kind = RequestKind::CreateArray;
  req.type = ElemType::Float64;
  req.dims = {n};
  req.processors = util::iota_nodes(procs);
  req.distrib = {DimSpec::block()};
  req.borders = BorderSpec::none();
  return req;
}

Request element_request(RequestKind kind, ArrayId id, int index,
                        double value = 0.0) {
  Request req;
  req.kind = kind;
  req.id = id;
  req.indices = {index};
  req.value = Scalar{value};
  return req;
}

TEST(ArrayRequestCodec, EveryKindRoundTripsAndMalformedBytesAreInvalid) {
  Request create = create_request(8, 4);
  create.distrib = {DimSpec::block_n(4)};
  create.borders = BorderSpec::foreign("halo", 2);
  create.indexing = Indexing::ColumnMajor;
  const vp::Payload bytes = encode(create);
  Request back;
  ASSERT_EQ(decode(bytes.bytes(), back), Status::Ok);
  EXPECT_EQ(back.kind, RequestKind::CreateArray);
  EXPECT_EQ(back.dims, create.dims);
  EXPECT_EQ(back.processors, create.processors);
  ASSERT_EQ(back.distrib.size(), 1u);
  EXPECT_EQ(back.distrib[0].kind, DimSpec::Kind::BlockN);
  EXPECT_EQ(back.distrib[0].n, 4);
  EXPECT_EQ(back.borders.kind, BorderSpec::Kind::Foreign);
  EXPECT_EQ(back.borders.program, "halo");
  EXPECT_EQ(back.borders.parm_num, 2);
  EXPECT_EQ(back.indexing, Indexing::ColumnMajor);

  Request write = element_request(RequestKind::WriteElement, ArrayId{3, 7},
                                  -2, 6.5);
  ASSERT_EQ(decode(encode(write).bytes(), back), Status::Ok);
  EXPECT_EQ(back.id, (ArrayId{3, 7}));
  EXPECT_EQ(back.indices, (std::vector<int>{-2}));
  EXPECT_DOUBLE_EQ(std::get<double>(back.value), 6.5);

  Request shard;
  shard.kind = RequestKind::WriteShard;
  shard.id = ArrayId{1, 2};
  shard.shard = 5;
  const char body[] = "shard bytes";
  shard.data = vp::Payload::copy_of(std::as_bytes(std::span(body)));
  ASSERT_EQ(decode(encode(shard).bytes(), back), Status::Ok);
  EXPECT_EQ(back.shard, 5);
  ASSERT_EQ(back.data.size(), sizeof(body));
  EXPECT_EQ(std::memcmp(back.data.data(), body, sizeof(body)), 0);

  // Every proper prefix of a request is truncated, and so Invalid.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_EQ(decode(bytes.bytes().first(n), back), Status::Invalid) << n;
  }
  // So are trailing bytes, an unknown kind and an out-of-range enum.
  std::vector<std::byte> longer(bytes.bytes().begin(), bytes.bytes().end());
  longer.push_back(std::byte{0});
  EXPECT_EQ(decode(longer, back), Status::Invalid);
  const std::byte unknown[] = {std::byte{42}};
  EXPECT_EQ(decode(unknown, back), Status::Invalid);
  Request info;
  info.kind = RequestKind::FindInfo;
  info.which = static_cast<InfoKind>(200);
  EXPECT_EQ(decode(encode(info).bytes(), back), Status::Invalid);
}

// A request reaches the handler of its own kind on the processor it names.
TEST(Server, RequestRoutesToCapabilityHandler) {
  vp::Machine machine(2);
  ArrayManager am(machine);
  ArrayService service(machine, am);
  Reply created;
  ASSERT_EQ(service.request(0, 1, create_request(4, 2), created), Status::Ok);
  EXPECT_EQ(created.id.creator, 1);  // executed by processor 1's server

  Reply reply;
  EXPECT_EQ(service.request(0, 1,
                            element_request(RequestKind::WriteElement,
                                            created.id, 3, 21.0),
                            reply),
            Status::Ok);
  ASSERT_EQ(service.request(
                0, 1, element_request(RequestKind::ReadElement, created.id, 3),
                reply),
            Status::Ok);
  EXPECT_DOUBLE_EQ(std::get<double>(reply.value), 21.0);
  Request info;
  info.kind = RequestKind::FindInfo;
  info.id = created.id;
  info.which = InfoKind::Dimensions;
  ASSERT_EQ(service.request(0, 1, info, reply), Status::Ok);
  EXPECT_EQ(std::get<std::vector<int>>(reply.info), (std::vector<int>{4}));
}

TEST(Server, UnknownCapabilityRepliesEmpty) {
  vp::Machine machine(1);
  ArrayManager am(machine);
  ArrayService service(machine, am);
  Request req;
  req.kind = static_cast<RequestKind>(42);
  Reply reply;
  EXPECT_EQ(service.request(0, 0, req, reply), Status::Invalid);
  EXPECT_EQ(reply.status, Status::Invalid);
}

TEST(Server, HandlerRunsOnItsProcessor) {
  vp::Machine machine(4);
  ArrayManager am(machine);
  ArrayService service(machine, am);
  for (int p = 0; p < 4; ++p) {
    Reply created;
    ASSERT_EQ(service.request(0, p, create_request(8, 4), created),
              Status::Ok);
    EXPECT_EQ(created.id.creator, p);  // the array manager saw on_proc == p
  }
}

TEST(Server, OriginIsTheRequestingProcessor) {
  // The reply goes to the requesting processor the request names: with
  // processor 2 failed, a request naming 2 as its requester is served but
  // its reply is lost, while the same request naming 1 is answered.
  vp::Machine machine(3);
  fault::Plan plan;
  plan.failed = {2};
  machine.set_fault_plan(plan);
  ArrayManager am(machine);
  ArrayService service(machine, am);
  RetryPolicy policy;
  policy.timeout_ms = 50;
  policy.max_attempts = 2;
  policy.backoff_ms = 1;
  Reply created;
  EXPECT_EQ(service.request(2, 0, create_request(6, 3), created, policy),
            Status::Error);
  ASSERT_EQ(service.request(1, 0, create_request(6, 3), created, policy),
            Status::Ok);
  EXPECT_EQ(created.id.creator, 0);
}

TEST(Server, NestedRequestsDoNotDeadlock) {
  // A requester on processor p may address p's own server: the server task
  // answers while the requester waits.
  vp::Machine machine(2);
  ArrayManager am(machine);
  ArrayService service(machine, am);
  Reply created;
  ASSERT_EQ(service.request(0, 0, create_request(2, 2), created), Status::Ok);
  pcn::ProcessGroup group;
  for (int p = 0; p < 2; ++p) {
    group.spawn_on(machine, p, [&, p] {
      const double v = p == 0 ? 40.0 : 70.0;
      Reply reply;
      EXPECT_EQ(service.request(p, p,
                                element_request(RequestKind::WriteElement,
                                                created.id, p, v),
                                reply),
                Status::Ok);
      EXPECT_EQ(service.request(
                    p, p,
                    element_request(RequestKind::ReadElement, created.id, p),
                    reply),
                Status::Ok);
      EXPECT_DOUBLE_EQ(std::get<double>(reply.value), v);
    });
  }
  group.join();
}

TEST(Server, ConcurrentRequestsAllServiced) {
  vp::Machine machine(2);
  ArrayManager am(machine);
  ArrayService service(machine, am);
  Reply created;
  ASSERT_EQ(service.request(0, 0, create_request(51, 2), created),
            Status::Ok);
  pcn::ProcessGroup group;
  for (int i = 1; i <= 50; ++i) {
    group.spawn_on(machine, i % 2, [&, i] {
      Reply reply;
      EXPECT_EQ(service.request(i % 2, (i + 1) % 2,
                                element_request(RequestKind::WriteElement,
                                                created.id, i, i),
                                reply),
                Status::Ok);
    });
  }
  group.join();
  double sum = 0;
  for (int i = 1; i <= 50; ++i) {
    Scalar v;
    ASSERT_EQ(am.read_element(0, created.id, std::vector<int>{i}, v),
              Status::Ok);
    sum += std::get<double>(v);
  }
  EXPECT_EQ(sum, 50 * 51 / 2);
}

class ArrayServerTest : public ::testing::Test {
 protected:
  ArrayServerTest() : machine_(4), am_(machine_), service_(machine_, am_) {}

  /// Issues `req` from processor 0 to processor `proc`'s server.
  Reply ask(int proc, const Request& req) {
    Reply reply;
    service_.request(0, proc, req, reply);
    return reply;
  }

  vp::Machine machine_;
  ArrayManager am_;
  ArrayService service_;
};

TEST_F(ArrayServerTest, CreateWriteReadFreeThroughServerRequests) {
  const Reply created = ask(0, create_request(8, 4));
  ASSERT_EQ(created.status, Status::Ok);

  const Reply wrote =
      ask(0, element_request(RequestKind::WriteElement, created.id, 5, 6.5));
  EXPECT_EQ(wrote.status, Status::Ok);

  // Read on another participating processor's server (the `@Processor`
  // annotation): identical result.
  const Request read =
      element_request(RequestKind::ReadElement, created.id, 5);
  for (int p = 0; p < 4; ++p) {
    const Reply got = ask(p, read);
    ASSERT_EQ(got.status, Status::Ok) << p;
    EXPECT_DOUBLE_EQ(std::get<double>(got.value), 6.5);
  }

  Request info;
  info.kind = RequestKind::FindInfo;
  info.id = created.id;
  info.which = InfoKind::GridDimensions;
  const Reply inf = ask(2, info);
  ASSERT_EQ(inf.status, Status::Ok);
  EXPECT_EQ(std::get<std::vector<int>>(inf.info), (std::vector<int>{4}));

  Request free_req;
  free_req.kind = RequestKind::FreeArray;
  free_req.id = created.id;
  const Reply freed = ask(3, free_req);
  EXPECT_EQ(freed.status, Status::Ok);
  const Reply gone = ask(0, read);
  EXPECT_EQ(gone.status, Status::NotFound);
}

TEST_F(ArrayServerTest, VerifyThroughServer) {
  Request create = create_request(8, 4);
  create.borders = BorderSpec::exact({1, 1});
  const Reply created = ask(0, create);
  ASSERT_EQ(created.status, Status::Ok);

  Request verify;
  verify.kind = RequestKind::VerifyArray;
  verify.id = created.id;
  verify.n_dims = 1;
  verify.borders = BorderSpec::exact({2, 2});
  verify.indexing = Indexing::RowMajor;
  const Reply verified = ask(1, verify);
  EXPECT_EQ(verified.status, Status::Ok);

  Request info;
  info.kind = RequestKind::FindInfo;
  info.id = created.id;
  info.which = InfoKind::Borders;
  const Reply inf = ask(0, info);
  ASSERT_EQ(inf.status, Status::Ok);
  EXPECT_EQ(std::get<std::vector<int>>(inf.info), (std::vector<int>{2, 2}));
}

TEST_F(ArrayServerTest, MalformedPayloadIsInvalid) {
  // A find_info request whose query kind is out of range: the server's
  // decoder refuses the bytes before any handler runs.
  Request info;
  info.kind = RequestKind::FindInfo;
  info.which = static_cast<InfoKind>(200);
  const Reply reply = ask(0, info);
  EXPECT_EQ(reply.status, Status::Invalid);
}

}  // namespace
}  // namespace tdp::dist
