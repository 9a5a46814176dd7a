#pragma once
// Embedding and LSTM layers for the text workloads (CNN/News20, LSTM/News20,
// the paper's Type-II jobs). The embedding dimension is one of the paper's
// five tuned hyperparameters (range 50-300).

#include "pipetune/nn/layer.hpp"
#include "pipetune/util/rng.hpp"

namespace pipetune::nn {

/// Token embedding: input (batch, seq) of integer token ids stored as floats,
/// output (batch, seq, dim). Backward scatter-adds into the embedding table.
class Embedding : public Layer {
public:
    Embedding(std::size_t vocab_size, std::size_t dim, util::Rng& rng);

    Tensor forward(const Tensor& input, bool training) override;
    Tensor backward(const Tensor& grad_output) override;
    std::vector<Tensor*> params() override { return {&table_}; }
    std::vector<Tensor*> grads() override { return {&grad_table_}; }
    std::string name() const override { return "Embedding"; }
    std::unique_ptr<Layer> clone() const override;

    std::size_t vocab_size() const { return vocab_; }
    std::size_t dim() const { return dim_; }

private:
    std::size_t vocab_, dim_;
    Tensor table_, grad_table_;
    Tensor cached_input_;
};

/// Single-layer LSTM over (batch, seq, input_dim), emitting the final hidden
/// state (batch, hidden). Full backpropagation-through-time.
/// Gate layout within the fused weight matrices is [input, forget, cell, output].
class Lstm : public Layer {
public:
    Lstm(std::size_t input_dim, std::size_t hidden_dim, util::Rng& rng);

    Tensor forward(const Tensor& input, bool training) override;
    Tensor backward(const Tensor& grad_output) override;
    std::vector<Tensor*> params() override { return {&w_input_, &w_recur_, &bias_}; }
    std::vector<Tensor*> grads() override { return {&grad_w_input_, &grad_w_recur_, &grad_bias_}; }
    std::string name() const override { return "Lstm"; }
    std::unique_ptr<Layer> clone() const override;

    std::size_t hidden_dim() const { return hidden_; }

private:
    std::size_t input_, hidden_;
    Tensor w_input_;   ///< (4H, D)
    Tensor w_recur_;   ///< (4H, H)
    Tensor bias_;      ///< (4H), forget-gate slice initialized to 1
    Tensor grad_w_input_, grad_w_recur_, grad_bias_;

    // Caches from the last forward pass, time-major: row t * B + b holds
    // sample b at step t, so one step is a contiguous (B, .) block and the
    // input-side GEMMs run once over all seq * B rows.
    Tensor x_;      ///< (S*B, D) the input
    Tensor gates_;  ///< (S*B, 4H) post-activation [i, f, g, o]
    Tensor c_;      ///< ((S+1)*B, H) cell states; block 0 is the zero initial state
    Tensor h_;      ///< ((S+1)*B, H) hidden states; block 0 is the zero initial state
    std::size_t cached_batch_ = 0;
    std::size_t cached_seq_ = 0;
};

}  // namespace pipetune::nn
