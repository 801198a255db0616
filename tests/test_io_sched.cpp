// Tests for dataset serialization (graph/io): exact round trips, a loaded
// dataset driving the sampler, and rejection of corrupt files.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "graph/io.h"
#include "sampling/fast_sampler.h"
#include "tensor/ops.h"

namespace salient {
namespace {

Dataset make_ds() {
  DatasetConfig c;
  c.name = "io-test";
  c.num_nodes = 1200;
  c.feature_dim = 10;
  c.num_classes = 4;
  c.avg_degree = 6;
  c.seed = 19;
  return generate_dataset(c);
}

TEST(DatasetIo, RoundTripsEverythingExactly) {
  Dataset ds = make_ds();
  const char* path = "/tmp/salient_ds.bin";
  save_dataset(ds, path);
  Dataset back = load_dataset(path);
  EXPECT_EQ(back.name, ds.name);
  EXPECT_EQ(back.graph.num_nodes(), ds.graph.num_nodes());
  EXPECT_EQ(back.graph.indptr(), ds.graph.indptr());
  EXPECT_EQ(back.graph.indices(), ds.graph.indices());
  EXPECT_EQ(back.num_classes, ds.num_classes);
  EXPECT_EQ(back.feature_dim, ds.feature_dim);
  EXPECT_TRUE(allclose(back.features, ds.features, 0.0, 0.0));
  EXPECT_TRUE(allclose(back.labels, ds.labels));
  EXPECT_EQ(back.train_idx, ds.train_idx);
  EXPECT_EQ(back.val_idx, ds.val_idx);
  EXPECT_EQ(back.test_idx, ds.test_idx);
  std::remove(path);
}

TEST(DatasetIo, LoadedDatasetTrains) {
  Dataset ds = make_ds();
  const char* path = "/tmp/salient_ds2.bin";
  save_dataset(ds, path);
  Dataset back = load_dataset(path);
  // the loaded dataset drives the sampler/loader stack unchanged
  FastSampler sampler(back.graph, {5, 3});
  std::vector<NodeId> batch(back.train_idx.begin(),
                            back.train_idx.begin() + 32);
  Mfg mfg = sampler.sample(batch, 3);
  EXPECT_TRUE(mfg.valid());
  std::remove(path);
}

TEST(DatasetIo, RejectsCorruption) {
  Dataset ds = make_ds();
  const char* path = "/tmp/salient_ds3.bin";
  save_dataset(ds, path);
  // truncate
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 3));
  }
  EXPECT_THROW(load_dataset(path), std::runtime_error);
  // bad magic
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write("NOPE", 4);
    const std::uint32_t v = 1;
    out.write(reinterpret_cast<const char*>(&v), 4);
  }
  EXPECT_THROW(load_dataset(path), std::runtime_error);
  EXPECT_THROW(load_dataset("/tmp/salient_does_not_exist.bin"),
               std::runtime_error);
  std::remove(path);
}

}  // namespace
}  // namespace salient
