#include "pipetune/nn/trainer.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "pipetune/tensor/ops.hpp"
#include "pipetune/util/stats.hpp"
#include "pipetune/util/worker_team.hpp"

namespace pipetune::nn {

double accuracy_of(const Tensor& logits, const std::vector<std::size_t>& labels) {
    if (logits.rank() != 2 || logits.dim(0) != labels.size())
        throw std::invalid_argument("accuracy_of: shape mismatch");
    std::size_t correct = 0;
    const std::size_t classes = logits.dim(1);
    for (std::size_t i = 0; i < labels.size(); ++i) {
        std::size_t best = 0;
        for (std::size_t c = 1; c < classes; ++c)
            if (logits(i, c) > logits(i, best)) best = c;
        if (best == labels[i]) ++correct;
    }
    return 100.0 * static_cast<double>(correct) / static_cast<double>(labels.size());
}

Trainer::Trainer(Sequential model, const data::Dataset& train, const data::Dataset& test,
                 TrainerConfig config)
    : model_(std::move(model)),
      train_(train),
      test_(test),
      config_(config),
      rng_(config.seed) {
    if (config.batch_size == 0) throw std::invalid_argument("Trainer: batch_size must be > 0");
    if (config.optimizer == TrainerConfig::OptimizerKind::kAdam)
        optimizer_ = std::make_unique<AdamOptimizer>(model_, config.adam);
    else
        optimizer_ = std::make_unique<SgdOptimizer>(model_, config.sgd);
}

void Trainer::sync_replicas(std::size_t count) {
    while (replicas_.size() < count) replicas_.push_back(model_);  // deep copy via clone
    for (std::size_t w = 0; w < count; ++w) replicas_[w].copy_params_from(model_);
}

EpochStats Trainer::run_epoch(std::size_t workers) {
    workers = std::max<std::size_t>(1, workers);
    data::BatchIterator batches(train_, config_.batch_size, rng_);
    EpochStats stats;
    stats.epoch = ++epochs_done_;

    util::RunningStats loss_stats, acc_stats;
    data::Batch batch;
    while (batches.next(batch)) {
        const std::size_t batch_n = batch.labels.size();
        const std::size_t used_workers = std::min(workers, batch_n);

        if (used_workers == 1) {
            model_.zero_grad();
            Tensor logits = model_.forward(batch.features, /*training=*/true);
            Tensor probs = tensor::softmax_rows(logits);
            loss_stats.add(tensor::cross_entropy(probs, batch.labels));
            acc_stats.add(accuracy_of(logits, batch.labels));
            model_.backward(tensor::softmax_cross_entropy_grad(probs, batch.labels));
            optimizer_->step();
        } else {
            // Shard the minibatch: contiguous slices of near-equal size.
            sync_replicas(used_workers);
            std::vector<std::vector<std::size_t>> shard_rows(used_workers);
            for (std::size_t i = 0; i < batch_n; ++i)
                shard_rows[i * used_workers / batch_n].push_back(i);

            const std::size_t feat_stride = batch.features.numel() / batch_n;
            std::vector<double> shard_loss(used_workers, 0.0);
            std::vector<double> shard_correct(used_workers, 0.0);

            // Shard w runs on this thread's worker team (shard 0 on this thread).
            util::fan_out(used_workers, [&](std::size_t w) {
                const auto& rows = shard_rows[w];
                tensor::Shape shard_shape = batch.features.shape();
                shard_shape[0] = rows.size();
                Tensor shard(shard_shape);
                std::vector<std::size_t> labels(rows.size());
                for (std::size_t r = 0; r < rows.size(); ++r) {
                    std::copy(batch.features.data() + rows[r] * feat_stride,
                              batch.features.data() + (rows[r] + 1) * feat_stride,
                              shard.data() + r * feat_stride);
                    labels[r] = batch.labels[rows[r]];
                }
                Sequential& replica = replicas_[w];
                replica.zero_grad();
                Tensor logits = replica.forward(shard, /*training=*/true);
                Tensor probs = tensor::softmax_rows(logits);
                shard_loss[w] = tensor::cross_entropy(probs, labels) * static_cast<double>(rows.size());
                shard_correct[w] =
                    accuracy_of(logits, labels) * static_cast<double>(rows.size()) / 100.0;
                replica.backward(tensor::softmax_cross_entropy_grad(probs, labels));
            });

            // Synchronous aggregation: weight each replica's mean gradient by
            // its shard fraction so the update equals a single-worker batch.
            model_.zero_grad();
            auto master_grads = model_.grads();
            for (std::size_t w = 0; w < used_workers; ++w) {
                const float weight = static_cast<float>(shard_rows[w].size()) /
                                     static_cast<float>(batch_n);
                auto replica_grads = replicas_[w].grads();
                for (std::size_t g = 0; g < master_grads.size(); ++g)
                    master_grads[g]->add_scaled(*replica_grads[g], weight);
            }
            optimizer_->step();

            double total_loss = 0.0, total_correct = 0.0;
            for (std::size_t w = 0; w < used_workers; ++w) {
                total_loss += shard_loss[w];
                total_correct += shard_correct[w];
            }
            loss_stats.add(total_loss / static_cast<double>(batch_n));
            acc_stats.add(100.0 * total_correct / static_cast<double>(batch_n));
        }
        ++stats.batches;
    }

    stats.train_loss = loss_stats.mean();
    stats.train_accuracy = acc_stats.mean();
    stats.test_accuracy = evaluate(workers);
    return stats;
}

namespace {
/// Test samples in [begin, end) that `model` classifies correctly, forwarded
/// in chunks of at most kEvalBatch rows.
std::size_t count_correct(Sequential& model, const data::Dataset& test, std::size_t begin,
                          std::size_t end) {
    constexpr std::size_t kEvalBatch = 128;
    std::size_t correct = 0;
    for (std::size_t start = begin; start < end; start += kEvalBatch) {
        std::vector<std::size_t> slice(std::min(kEvalBatch, end - start));
        std::iota(slice.begin(), slice.end(), start);
        data::Batch batch = data::stack_batch(test, slice);
        Tensor logits = model.forward(batch.features, /*training=*/false);
        const std::size_t classes = logits.dim(1);
        for (std::size_t i = 0; i < batch.labels.size(); ++i) {
            std::size_t best = 0;
            for (std::size_t c = 1; c < classes; ++c)
                if (logits(i, c) > logits(i, best)) best = c;
            if (best == batch.labels[i]) ++correct;
        }
    }
    return correct;
}
}  // namespace

double Trainer::evaluate(std::size_t workers) {
    const std::size_t samples = test_.size();
    workers = std::clamp<std::size_t>(workers, 1, std::max<std::size_t>(1, samples));
    // A logit row depends only on its own sample (every kernel accumulates
    // each output element independently of the other rows), so contiguous
    // slices on the synced replicas count exactly what one pass would.
    if (workers > 1) sync_replicas(workers);
    std::vector<std::size_t> correct(workers, 0);
    util::fan_out(workers, [&](std::size_t w) {
        Sequential& model = workers == 1 ? model_ : replicas_[w];
        correct[w] = count_correct(model, test_, w * samples / workers,
                                   (w + 1) * samples / workers);
    });
    const std::size_t total = std::accumulate(correct.begin(), correct.end(), std::size_t{0});
    return 100.0 * static_cast<double>(total) / static_cast<double>(samples);
}

}  // namespace pipetune::nn
