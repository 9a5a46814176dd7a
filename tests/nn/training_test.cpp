#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "pipetune/data/synthetic.hpp"
#include "pipetune/nn/basic_layers.hpp"
#include "pipetune/nn/models.hpp"
#include "pipetune/nn/optimizer.hpp"
#include "pipetune/nn/sequential.hpp"
#include "pipetune/nn/trainer.hpp"
#include "pipetune/tensor/ops.hpp"
#include "pipetune/tensor/simd.hpp"

namespace pipetune::nn {
namespace {

using tensor::Tensor;

TEST(Sequential, ForwardChainsLayers) {
    util::Rng rng(1);
    Sequential model;
    model.emplace<Dense>(2, 4, rng);
    model.emplace<ReLU>();
    model.emplace<Dense>(4, 3, rng);
    Tensor x = Tensor::uniform({5, 2}, rng);
    Tensor y = model.forward(x, false);
    EXPECT_EQ(y.shape(), (tensor::Shape{5, 3}));
}

TEST(Sequential, ParamAggregationCountsAllLayers) {
    util::Rng rng(2);
    Sequential model;
    model.emplace<Dense>(3, 4, rng);   // 3*4 + 4 = 16
    model.emplace<Dense>(4, 2, rng);   // 4*2 + 2 = 10
    EXPECT_EQ(model.param_count(), 26u);
    EXPECT_EQ(model.params().size(), 4u);
    EXPECT_EQ(model.grads().size(), 4u);
}

TEST(Sequential, CopyIsDeep) {
    util::Rng rng(3);
    Sequential model;
    model.emplace<Dense>(2, 2, rng);
    Sequential copy = model;
    (*model.params()[0])[0] += 5.0f;
    EXPECT_NE((*model.params()[0])[0], (*copy.params()[0])[0]);
}

TEST(Sequential, CopyParamsFromSynchronizesValues) {
    util::Rng rng(4);
    Sequential a, b;
    a.emplace<Dense>(2, 2, rng);
    b = a;
    (*a.params()[0])[0] = 99.0f;
    b.copy_params_from(a);
    EXPECT_FLOAT_EQ((*b.params()[0])[0], 99.0f);
}

TEST(Sequential, CopyParamsRejectsMismatchedStructure) {
    util::Rng rng(5);
    Sequential a, b;
    a.emplace<Dense>(2, 2, rng);
    b.emplace<Dense>(2, 3, rng);
    EXPECT_THROW(b.copy_params_from(a), std::invalid_argument);
}

TEST(Sequential, AddRejectsNull) {
    Sequential model;
    EXPECT_THROW(model.add(nullptr), std::invalid_argument);
}

TEST(SgdOptimizer, PlainGradientStep) {
    util::Rng rng(6);
    Sequential model;
    model.emplace<Dense>(1, 1, rng);
    (*model.params()[0])[0] = 1.0f;
    (*model.grads()[0])[0] = 2.0f;
    (*model.params()[1])[0] = 0.0f;
    SgdOptimizer opt(model, {.learning_rate = 0.1, .momentum = 0.0, .weight_decay = 0.0});
    opt.step();
    EXPECT_NEAR((*model.params()[0])[0], 1.0f - 0.1f * 2.0f, 1e-6f);
    EXPECT_FLOAT_EQ((*model.grads()[0])[0], 0.0f);  // grads zeroed after step
}

TEST(SgdOptimizer, MomentumAccumulatesVelocity) {
    util::Rng rng(7);
    Sequential model;
    model.emplace<Dense>(1, 1, rng);
    (*model.params()[0])[0] = 0.0f;
    SgdOptimizer opt(model, {.learning_rate = 1.0, .momentum = 0.5, .weight_decay = 0.0});
    (*model.grads()[0])[0] = 1.0f;
    opt.step();  // v = -1, w = -1
    EXPECT_NEAR((*model.params()[0])[0], -1.0f, 1e-6f);
    (*model.grads()[0])[0] = 1.0f;
    opt.step();  // v = -0.5 - 1 = -1.5, w = -2.5
    EXPECT_NEAR((*model.params()[0])[0], -2.5f, 1e-6f);
}

TEST(SgdOptimizer, WeightDecayShrinksWeights) {
    util::Rng rng(8);
    Sequential model;
    model.emplace<Dense>(1, 1, rng);
    (*model.params()[0])[0] = 10.0f;
    SgdOptimizer opt(model, {.learning_rate = 0.1, .momentum = 0.0, .weight_decay = 0.5});
    (*model.grads()[0])[0] = 0.0f;
    opt.step();
    EXPECT_NEAR((*model.params()[0])[0], 10.0f - 0.1f * 0.5f * 10.0f, 1e-5f);
}

TEST(SgdOptimizer, ValidatesConfig) {
    util::Rng rng(9);
    Sequential model;
    model.emplace<Dense>(1, 1, rng);
    EXPECT_THROW(SgdOptimizer(model, {.learning_rate = 0.0, .momentum = 0, .weight_decay = 0}),
                 std::invalid_argument);
    EXPECT_THROW(SgdOptimizer(model, {.learning_rate = 0.1, .momentum = 1.0, .weight_decay = 0}),
                 std::invalid_argument);
    EXPECT_THROW(SgdOptimizer(model, {.learning_rate = 0.1, .momentum = 0, .weight_decay = -1}),
                 std::invalid_argument);
}

TEST(ModelZoo, LeNetOutputsClassLogits) {
    Sequential lenet = build_lenet5({.image_size = 28, .classes = 10, .dropout = 0.2, .seed = 1});
    util::Rng rng(10);
    Tensor x = Tensor::uniform({2, 1, 28, 28}, rng, 0.0f, 1.0f);
    Tensor logits = lenet.forward(x, false);
    EXPECT_EQ(logits.shape(), (tensor::Shape{2, 10}));
    EXPECT_GT(lenet.param_count(), 10000u);
}

TEST(ModelZoo, TextCnnOutputsClassLogits) {
    TextModelConfig config;
    config.vocab_size = 200;
    config.seq_len = 16;
    config.classes = 5;
    config.embedding_dim = 8;
    config.dropout = 0.1;
    Sequential model = build_textcnn(config);
    Tensor tokens({3, 16});
    for (std::size_t i = 0; i < tokens.numel(); ++i) tokens[i] = static_cast<float>(i % 200);
    Tensor logits = model.forward(tokens, false);
    EXPECT_EQ(logits.shape(), (tensor::Shape{3, 5}));
}

TEST(ModelZoo, LstmClassifierOutputsClassLogits) {
    TextModelConfig config;
    config.vocab_size = 100;
    config.seq_len = 8;
    config.classes = 4;
    config.embedding_dim = 6;
    config.lstm_hidden = 5;
    Sequential model = build_lstm_classifier(config);
    Tensor tokens({2, 8});
    for (std::size_t i = 0; i < tokens.numel(); ++i) tokens[i] = static_cast<float>(i % 100);
    Tensor logits = model.forward(tokens, false);
    EXPECT_EQ(logits.shape(), (tensor::Shape{2, 4}));
}

TEST(ModelZoo, ValidatesGeometry) {
    EXPECT_THROW(build_lenet5({.image_size = 8, .classes = 10, .dropout = 0, .seed = 1}),
                 std::invalid_argument);
    TextModelConfig bad;
    bad.seq_len = 2;
    bad.conv_kernel = 3;
    EXPECT_THROW(build_textcnn(bad), std::invalid_argument);
}

// A tiny two-class linearly separable problem learned by a dense net: the
// end-to-end sanity check that forward/backward/optimizer compose correctly.
TEST(Training, DenseNetLearnsSeparableData) {
    util::Rng rng(42);
    std::vector<Tensor> samples;
    std::vector<std::size_t> labels;
    for (int i = 0; i < 128; ++i) {
        const std::size_t cls = i % 2;
        Tensor s({4});
        for (std::size_t d = 0; d < 4; ++d)
            s(d) = static_cast<float>(rng.normal(cls == 0 ? -1.0 : 1.0, 0.4));
        samples.push_back(s);
        labels.push_back(cls);
    }
    data::InMemoryDataset train("toy", samples, labels, 2);
    data::InMemoryDataset test("toy-test", samples, labels, 2);

    Sequential model;
    model.emplace<Dense>(4, 8, rng);
    model.emplace<ReLU>();
    model.emplace<Dense>(8, 2, rng);

    TrainerConfig config;
    config.batch_size = 16;
    config.sgd = {.learning_rate = 0.1, .momentum = 0.9, .weight_decay = 0.0};
    Trainer trainer(std::move(model), train, test, config);
    EpochStats last;
    for (int e = 0; e < 10; ++e) last = trainer.run_epoch(1);
    EXPECT_GT(last.test_accuracy, 95.0);
    EXPECT_EQ(last.epoch, 10u);
}

// Synchronous data parallelism must preserve learning: training with 4
// workers should reach the same quality as 1 worker (gradient aggregation is
// mathematically equivalent up to shard rounding).
TEST(Training, MultiWorkerMatchesSingleWorkerQuality) {
    data::ImageDatasetConfig data_config;
    data_config.classes = 4;
    data_config.samples = 96;
    data_config.image_size = 16;
    data_config.seed = 5;
    auto split = data::make_image_split(data_config, "img", 32);
    const auto& train = split.train;
    const auto& test = split.test;

    auto make_trainer = [&](std::uint64_t seed) {
        util::Rng rng(seed);
        Sequential model;
        model.emplace<Flatten>();
        model.emplace<Dense>(16 * 16, 16, rng);
        model.emplace<ReLU>();
        model.emplace<Dense>(16, 4, rng);
        TrainerConfig config;
        config.batch_size = 32;
        config.sgd = {.learning_rate = 0.2, .momentum = 0.9, .weight_decay = 0.0};
        config.seed = seed;
        return Trainer(std::move(model), *train, *test, config);
    };

    Trainer solo = make_trainer(7);
    Trainer parallel = make_trainer(7);
    double solo_acc = 0, parallel_acc = 0;
    for (int e = 0; e < 6; ++e) {
        solo_acc = solo.run_epoch(1).test_accuracy;
        parallel_acc = parallel.run_epoch(4).test_accuracy;
    }
    EXPECT_GT(solo_acc, 70.0);
    EXPECT_GT(parallel_acc, 70.0);
}

TEST(Training, EvaluateIsSideEffectFree) {
    util::Rng rng(11);
    std::vector<Tensor> samples{Tensor({2}, std::vector<float>{1, 0}),
                                Tensor({2}, std::vector<float>{0, 1})};
    data::InMemoryDataset dataset("d", samples, {0, 1}, 2);
    Sequential model;
    model.emplace<Dense>(2, 2, rng);
    Trainer trainer(std::move(model), dataset, dataset, {});
    const double first = trainer.evaluate();
    const double second = trainer.evaluate();
    EXPECT_DOUBLE_EQ(first, second);
}

// ---- Golden bit-identity (DESIGN.md §12 "Real epochs") ----
// Three epochs of each RealBackend model at 1 and 2 workers must reproduce,
// bit for bit, the EpochStats and parameters the trainer produced before the
// persistent worker team, the split evaluation, the first-layer input-grad
// skip and the hoisted LSTM GEMMs — under the scalar and the AVX2 kernels.
// The shapes are RealBackend's: 192 training and 64 test samples, 20x20
// images, vocab 400, 16-token sequences, 6 classes; the LSTM's embedding of
// 26 gives its dX GEMM an n mod 16 >= 8 column block plus a scalar tail.

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) hash = (hash ^ p[i]) * 0x100000001b3ULL;
    return hash;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

struct GoldenCase {
    const char* model;
    std::size_t workers;
    std::uint64_t stats_hash;   ///< every epoch's EpochStats, in order
    std::uint64_t params_hash;  ///< every parameter tensor after epoch 3
};

const GoldenCase kGolden[] = {
    {"lenet", 1, 0x67d250a90b35bafaULL, 0xa791ebb130a47146ULL},
    {"lenet", 2, 0xec09d935f5718e22ULL, 0xe6208eca560c92caULL},
    {"textcnn", 1, 0xe6b30a652a281b55ULL, 0x9caa57d0c9b0f591ULL},
    {"textcnn", 2, 0x3cad3ebb3b39d5c5ULL, 0x90f680587a79db6cULL},
    {"lstm", 1, 0x1435e032623c8892ULL, 0x9c9c84f3f23de7c7ULL},
    {"lstm", 2, 0xf22126a04198fa5aULL, 0x388a68eb6a30fc0eULL},
};

GoldenCase train_golden(const std::string& model_name, std::size_t workers) {
    constexpr std::size_t kClasses = 6, kTrain = 192, kTest = 64;
    data::TrainTestPair split;
    Sequential model;
    TrainerConfig config;
    config.sgd = {.learning_rate = 0.05, .momentum = 0.9, .weight_decay = 0.0};
    config.seed = 17;
    if (model_name == "lenet") {
        data::ImageDatasetConfig image;
        image.classes = kClasses;
        image.samples = kTrain;
        image.image_size = 20;
        image.seed = 5;
        split = data::make_image_split(image, "mnist", kTest);
        ImageModelConfig lenet;
        lenet.image_size = 20;
        lenet.classes = kClasses;
        lenet.dropout = 0.2;
        lenet.seed = 7;
        model = build_lenet5(lenet);
        config.batch_size = 16;
    } else {
        data::TextDatasetConfig text;
        text.classes = kClasses;
        text.samples = kTrain;
        text.vocab_size = 400;
        text.seq_len = 16;
        text.topic_strength = 0.7;
        text.seed = 6;
        split = data::make_text_split(text, "news20", kTest);
        TextModelConfig cfg;
        cfg.vocab_size = 400;
        cfg.seq_len = 16;
        cfg.classes = kClasses;
        cfg.dropout = 0.1;
        cfg.seed = 8;
        if (model_name == "textcnn") {
            cfg.embedding_dim = 8;
            model = build_textcnn(cfg);
            config.batch_size = 16;
        } else {
            cfg.embedding_dim = 26;
            model = build_lstm_classifier(cfg);
            config.batch_size = 12;
        }
    }
    Trainer trainer(std::move(model), *split.train, *split.test, config);
    std::uint64_t stats_hash = kFnvBasis;
    for (int e = 0; e < 3; ++e) {
        const EpochStats s = trainer.run_epoch(workers);
        const double values[] = {s.train_loss, s.train_accuracy, s.test_accuracy};
        stats_hash = fnv1a(stats_hash, values, sizeof(values));
        const std::uint64_t counts[] = {s.batches, s.epoch};
        stats_hash = fnv1a(stats_hash, counts, sizeof(counts));
    }
    std::uint64_t params_hash = kFnvBasis;
    for (const Tensor* p : trainer.model().params())
        params_hash = fnv1a(params_hash, p->data(), p->numel() * sizeof(float));
    return {nullptr, workers, stats_hash, params_hash};
}

void expect_golden(tensor::simd::Isa isa) {
    tensor::simd::force_isa(isa);
    for (const GoldenCase& want : kGolden) {
        const GoldenCase got = train_golden(want.model, want.workers);
        char hex[64];
        std::snprintf(hex, sizeof(hex), "{0x%016llxULL, 0x%016llxULL}",
                      static_cast<unsigned long long>(got.stats_hash),
                      static_cast<unsigned long long>(got.params_hash));
        EXPECT_EQ(got.stats_hash, want.stats_hash)
            << tensor::simd::to_string(isa) << " " << want.model << " x" << want.workers
            << " got " << hex;
        EXPECT_EQ(got.params_hash, want.params_hash)
            << tensor::simd::to_string(isa) << " " << want.model << " x" << want.workers
            << " got " << hex;
    }
    tensor::simd::reset_isa();
}

TEST(GoldenEpochs, ScalarKernelsReproduceTheCapturedRun) {
    expect_golden(tensor::simd::Isa::kScalar);
}

TEST(GoldenEpochs, Avx2KernelsReproduceTheCapturedRun) {
    if (tensor::simd::best_isa() != tensor::simd::Isa::kAvx2) GTEST_SKIP() << "host has no AVX2";
    expect_golden(tensor::simd::Isa::kAvx2);
}

TEST(Training, AccuracyOfComputesArgmaxMatches) {
    Tensor logits({2, 3}, std::vector<float>{0, 5, 1, 2, 1, 0});
    EXPECT_DOUBLE_EQ(accuracy_of(logits, {1, 0}), 100.0);
    EXPECT_DOUBLE_EQ(accuracy_of(logits, {0, 0}), 50.0);
    EXPECT_THROW(accuracy_of(logits, {0}), std::invalid_argument);
}

}  // namespace
}  // namespace pipetune::nn
