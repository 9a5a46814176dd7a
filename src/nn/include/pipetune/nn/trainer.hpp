#pragma once
// Minibatch SGD trainer with synchronous N-way data parallelism.
//
// This reproduces the training mechanism the paper's system-parameter tuning
// exploits (§3.2): each minibatch is split across `workers` model replicas,
// gradients are aggregated synchronously, and one update is applied. More
// workers shrink per-replica shards, so small batch sizes pay relatively more
// synchronization overhead — the cores-vs-batch-size crossover of Fig 3b.
//
// The replicas run on the calling thread's persistent worker team
// (util::fan_out; shard 0 on the caller), and so does the end-of-epoch
// evaluation, split into contiguous test slices. Neither changes a bit of
// the arithmetic: every shard and slice computes what it did on one thread
// (DESIGN.md §12 "Real epochs").

#include <cstdint>

#include "pipetune/data/dataset.hpp"
#include "pipetune/nn/optimizer.hpp"
#include "pipetune/nn/sequential.hpp"

namespace pipetune::nn {

struct TrainerConfig {
    std::size_t batch_size = 32;  ///< paper hyperparameter, range [32, 1024]
    enum class OptimizerKind { kSgd, kAdam } optimizer = OptimizerKind::kSgd;
    SgdConfig sgd{};    ///< used when optimizer == kSgd
    AdamConfig adam{};  ///< used when optimizer == kAdam
    std::uint64_t seed = 1;
};

struct EpochStats {
    double train_loss = 0.0;
    double train_accuracy = 0.0;  ///< [0, 100]
    double test_accuracy = 0.0;   ///< [0, 100]
    std::size_t batches = 0;
    std::size_t epoch = 0;        ///< 1-based epoch index
};

class Trainer {
public:
    /// Takes ownership of the model; datasets must outlive the trainer.
    Trainer(Sequential model, const data::Dataset& train, const data::Dataset& test,
            TrainerConfig config);

    /// One full pass over the training set using `workers` parallel replicas,
    /// then evaluate(workers).
    EpochStats run_epoch(std::size_t workers);

    /// Accuracy [0, 100] on the test set, counted over `workers` contiguous
    /// slices in parallel; the result does not depend on `workers`.
    double evaluate(std::size_t workers = 1);

    Sequential& model() { return model_; }
    std::size_t epochs_done() const { return epochs_done_; }

private:
    /// Ensure `count` worker replicas exist and mirror the master weights.
    void sync_replicas(std::size_t count);

    Sequential model_;
    const data::Dataset& train_;
    const data::Dataset& test_;
    TrainerConfig config_;
    std::unique_ptr<Optimizer> optimizer_;
    util::Rng rng_;
    std::vector<Sequential> replicas_;
    std::size_t epochs_done_ = 0;
};

/// Accuracy [0, 100] of argmax(logits) against labels.
double accuracy_of(const Tensor& logits, const std::vector<std::size_t>& labels);

}  // namespace pipetune::nn
