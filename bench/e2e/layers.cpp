// Direct calls into the tensor and nn layers at sim::RealBackend's default
// shapes (20x20 images, 6 classes, 192 training samples, vocab 400, 16-token
// sequences, trainer batch 16 = hyperparameter batch 128 / 8, 2 workers), so
// a kernel change shows up here before it shows up in backend.epoch_ms_p50.

#include <functional>

#include "pipetune/data/synthetic.hpp"
#include "pipetune/nn/models.hpp"
#include "pipetune/nn/trainer.hpp"
#include "pipetune/tensor/ops.hpp"
#include "pipetune/util/rng.hpp"
#include "pipetune/util/stats.hpp"
#include "run.hpp"

namespace ptbench {

namespace {

namespace data = pipetune::data;
namespace nn = pipetune::nn;
namespace tensor = pipetune::tensor;

constexpr std::size_t kBatch = 16;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kImageSize = 20;
constexpr std::size_t kClasses = 6;
constexpr std::size_t kTrainSamples = 192;
constexpr std::size_t kTestSamples = 64;

/// Median wall time of `reps` calls after one untimed warm-up call, in ms.
double median_ms(std::size_t reps, const std::function<void()>& fn) {
    fn();
    std::vector<double> samples;
    for (std::size_t i = 0; i < reps; ++i) {
        const Clock::time_point begin = Clock::now();
        fn();
        samples.push_back(ms_between(begin, Clock::now()));
    }
    return util::median(samples);
}

double epoch_ms(nn::Sequential model, const data::TrainTestPair& split, std::uint64_t seed) {
    nn::TrainerConfig config;
    config.batch_size = kBatch;
    config.sgd.learning_rate = 0.01;
    config.sgd.momentum = 0.9;
    config.seed = seed;
    nn::Trainer trainer(std::move(model), *split.train, *split.test, config);
    return median_ms(5, [&] { trainer.run_epoch(kWorkers); });
}

}  // namespace

LayerTimings time_layers(std::uint64_t seed) {
    LayerTimings out;
    util::Rng rng(seed);

    // LeNet's first convolution on one minibatch, and its first dense layer.
    const tensor::Tensor input = tensor::Tensor::uniform({kBatch, 1, kImageSize, kImageSize}, rng);
    const tensor::Tensor kernel = tensor::Tensor::uniform({6, 1, 5, 5}, rng);
    const tensor::Tensor bias = tensor::Tensor::uniform({6}, rng);
    out.conv2d_us = 1e3 * median_ms(51, [&] { (void)tensor::conv2d(input, kernel, bias); });
    const tensor::Tensor activations = tensor::Tensor::uniform({kBatch, 64}, rng);
    const tensor::Tensor weights = tensor::Tensor::uniform({64, 120}, rng);
    out.matmul_us = 1e3 * median_ms(51, [&] { (void)tensor::matmul(activations, weights); });

    data::ImageDatasetConfig image;
    image.classes = kClasses;
    image.samples = kTrainSamples;
    image.image_size = kImageSize;
    image.seed = seed;
    const auto images = data::make_image_split(image, "mnist", kTestSamples);
    nn::ImageModelConfig lenet;
    lenet.image_size = kImageSize;
    lenet.classes = kClasses;
    lenet.seed = seed;
    out.lenet_epoch_ms = epoch_ms(nn::build_lenet5(lenet), images, seed);

    data::TextDatasetConfig text;
    text.classes = kClasses;
    text.samples = kTrainSamples;
    text.vocab_size = 400;
    text.seq_len = 16;
    text.topic_strength = 0.7;
    text.seed = seed;
    const auto texts = data::make_text_split(text, "news20", kTestSamples);
    nn::TextModelConfig model;
    model.vocab_size = text.vocab_size;
    model.seq_len = text.seq_len;
    model.classes = kClasses;
    model.embedding_dim = 8;  // RealBackend: max(8, embedding hyperparameter / 10)
    model.seed = seed;
    out.textcnn_epoch_ms = epoch_ms(nn::build_textcnn(model), texts, seed);
    out.lstm_epoch_ms = epoch_ms(nn::build_lstm_classifier(model), texts, seed);
    return out;
}

}  // namespace ptbench
