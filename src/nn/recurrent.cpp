#include "pipetune/nn/recurrent.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "pipetune/tensor/ops.hpp"
#include "pipetune/tensor/simd.hpp"

namespace pipetune::nn {

Embedding::Embedding(std::size_t vocab_size, std::size_t dim, util::Rng& rng)
    : vocab_(vocab_size),
      dim_(dim),
      table_(Tensor::normal({vocab_size, dim}, rng, 0.0f, 0.1f)),
      grad_table_({vocab_size, dim}) {
    if (vocab_size == 0 || dim == 0)
        throw std::invalid_argument("Embedding: vocab and dim must be > 0");
}

Tensor Embedding::forward(const Tensor& input, bool /*training*/) {
    if (input.rank() != 2)
        throw std::invalid_argument("Embedding::forward: expected (batch, seq)");
    cached_input_ = input;
    const std::size_t batch = input.dim(0), seq = input.dim(1);
    Tensor out({batch, seq, dim_});
    for (std::size_t b = 0; b < batch; ++b)
        for (std::size_t t = 0; t < seq; ++t) {
            const auto token = static_cast<std::size_t>(input(b, t));
            if (token >= vocab_)
                throw std::invalid_argument("Embedding::forward: token id out of vocabulary");
            const float* row = table_.data() + token * dim_;
            float* dst = out.data() + (b * seq + t) * dim_;
            for (std::size_t d = 0; d < dim_; ++d) dst[d] = row[d];
        }
    return out;
}

Tensor Embedding::backward(const Tensor& grad_output) {
    if (cached_input_.empty()) throw std::runtime_error("Embedding::backward before forward");
    const std::size_t batch = cached_input_.dim(0), seq = cached_input_.dim(1);
    if (grad_output.shape() != tensor::Shape{batch, seq, dim_})
        throw std::invalid_argument("Embedding::backward: grad shape mismatch");
    for (std::size_t b = 0; b < batch; ++b)
        for (std::size_t t = 0; t < seq; ++t) {
            const auto token = static_cast<std::size_t>(cached_input_(b, t));
            float* grow = grad_table_.data() + token * dim_;
            const float* src = grad_output.data() + (b * seq + t) * dim_;
            for (std::size_t d = 0; d < dim_; ++d) grow[d] += src[d];
        }
    // Token ids are not differentiable; return a zero gradient of input shape
    // so Sequential can keep chaining (embedding is always the first layer).
    return Tensor(cached_input_.shape());
}

std::unique_ptr<Layer> Embedding::clone() const { return std::make_unique<Embedding>(*this); }

Lstm::Lstm(std::size_t input_dim, std::size_t hidden_dim, util::Rng& rng)
    : input_(input_dim),
      hidden_(hidden_dim),
      w_input_(Tensor::xavier({4 * hidden_dim, input_dim}, rng, input_dim, hidden_dim)),
      w_recur_(Tensor::xavier({4 * hidden_dim, hidden_dim}, rng, hidden_dim, hidden_dim)),
      bias_({4 * hidden_dim}),
      grad_w_input_({4 * hidden_dim, input_dim}),
      grad_w_recur_({4 * hidden_dim, hidden_dim}),
      grad_bias_({4 * hidden_dim}) {
    if (input_dim == 0 || hidden_dim == 0)
        throw std::invalid_argument("Lstm: dimensions must be > 0");
    // Standard trick: bias the forget gate open so gradients flow early on.
    for (std::size_t i = hidden_; i < 2 * hidden_; ++i) bias_[i] = 1.0f;
}

namespace {
inline float sigmoid_scalar(float x) { return 1.0f / (1.0f + std::exp(-x)); }
}  // namespace

Tensor Lstm::forward(const Tensor& input, bool /*training*/) {
    if (input.rank() != 3 || input.dim(2) != input_)
        throw std::invalid_argument("Lstm::forward: expected (batch, seq, " +
                                    std::to_string(input_) + ")");
    const std::size_t batch = input.dim(0), seq = input.dim(1), gates = 4 * hidden_;
    cached_batch_ = batch;
    cached_seq_ = seq;
    x_ = Tensor({seq * batch, input_});
    for (std::size_t b = 0; b < batch; ++b)
        for (std::size_t t = 0; t < seq; ++t)
            std::copy_n(input.data() + (b * seq + t) * input_, input_,
                        x_.data() + (t * batch + b) * input_);

    // pre = x W^T + h U^T + b : (batch, 4H) per step. The x W^T terms of all
    // steps are one GEMM up front; each element still starts from 0 and runs
    // k-sequentially over D, so it is the per-step product bit for bit.
    Tensor pre = tensor::matmul_transposed_b(x_, w_input_);
    gates_ = Tensor({seq * batch, gates});
    c_ = Tensor({(seq + 1) * batch, hidden_});
    h_ = Tensor({(seq + 1) * batch, hidden_});
    Tensor recur({batch, gates});
    for (std::size_t t = 0; t < seq; ++t) {
        recur.fill(0.0f);
        tensor::simd::gemm_bt(batch, hidden_, gates, h_.data() + t * batch * hidden_,
                              w_recur_.data(), recur.data());
        float* pre_t = pre.data() + t * batch * gates;
        float* gates_t = gates_.data() + t * batch * gates;
        const float* c_prev = c_.data() + t * batch * hidden_;
        float* c_next = c_.data() + (t + 1) * batch * hidden_;
        float* h_next = h_.data() + (t + 1) * batch * hidden_;
        for (std::size_t b = 0; b < batch; ++b) {
            float* p = pre_t + b * gates;
            const float* r = recur.data() + b * gates;
            for (std::size_t j = 0; j < gates; ++j) p[j] = (p[j] + r[j]) + bias_[j];
            float* g = gates_t + b * gates;
            for (std::size_t j = 0; j < hidden_; ++j) {
                const float gi = sigmoid_scalar(p[j]);
                const float gf = sigmoid_scalar(p[hidden_ + j]);
                const float gg = std::tanh(p[2 * hidden_ + j]);
                const float go = sigmoid_scalar(p[3 * hidden_ + j]);
                g[j] = gi;
                g[hidden_ + j] = gf;
                g[2 * hidden_ + j] = gg;
                g[3 * hidden_ + j] = go;
                const std::size_t at = b * hidden_ + j;
                c_next[at] = gf * c_prev[at] + gi * gg;
                h_next[at] = go * std::tanh(c_next[at]);
            }
        }
    }
    Tensor h({batch, hidden_});
    std::copy_n(h_.data() + seq * batch * hidden_, batch * hidden_, h.data());
    return h;
}

Tensor Lstm::backward(const Tensor& grad_output) {
    if (x_.empty()) throw std::runtime_error("Lstm::backward before forward");
    const std::size_t batch = cached_batch_, seq = cached_seq_, gates = 4 * hidden_;
    if (grad_output.shape() != tensor::Shape{batch, hidden_})
        throw std::invalid_argument("Lstm::backward: grad shape mismatch");

    Tensor d_pre({seq * batch, gates});  // every step's gate gradient, time-major
    Tensor dh = grad_output;             // dL/dh_t flowing backward
    Tensor dc({batch, hidden_});         // dL/dc_t flowing backward
    Tensor dc_prev({batch, hidden_});
    Tensor step_grad_input({gates, input_});
    Tensor step_grad_recur({gates, hidden_});

    for (std::size_t ti = seq; ti-- > 0;) {
        const float* gates_t = gates_.data() + ti * batch * gates;
        const float* c_t = c_.data() + (ti + 1) * batch * hidden_;
        const float* c_prev = c_.data() + ti * batch * hidden_;  // zeros at ti = 0
        float* d_pre_t = d_pre.data() + ti * batch * gates;
        for (std::size_t b = 0; b < batch; ++b)
            for (std::size_t j = 0; j < hidden_; ++j) {
                const float* g = gates_t + b * gates;
                const float gi = g[j];
                const float gf = g[hidden_ + j];
                const float gg = g[2 * hidden_ + j];
                const float go = g[3 * hidden_ + j];
                const float tanh_c = std::tanh(c_t[b * hidden_ + j]);
                const float cp = c_prev[b * hidden_ + j];

                const float dh_bj = dh(b, j);
                const float dc_total = dc(b, j) + dh_bj * go * (1.0f - tanh_c * tanh_c);

                float* d = d_pre_t + b * gates;
                d[j] = dc_total * gg * gi * (1.0f - gi);                     // input gate
                d[hidden_ + j] = dc_total * cp * gf * (1.0f - gf);           // forget gate
                d[2 * hidden_ + j] = dc_total * gi * (1.0f - gg * gg);       // candidate
                d[3 * hidden_ + j] = dh_bj * tanh_c * go * (1.0f - go);      // output gate
                dc_prev(b, j) = dc_total * gf;
            }

        // Parameter gradients: each step's product is summed from zero and
        // then added, step by step — the order the weights' bits depend on.
        step_grad_input.fill(0.0f);
        tensor::simd::gemm_at(gates, batch, input_, d_pre_t, x_.data() + ti * batch * input_,
                              step_grad_input.data());
        grad_w_input_ += step_grad_input;
        if (ti > 0) {
            step_grad_recur.fill(0.0f);
            tensor::simd::gemm_at(gates, batch, hidden_, d_pre_t,
                                  h_.data() + ti * batch * hidden_, step_grad_recur.data());
            grad_w_recur_ += step_grad_recur;
        }
        for (std::size_t b = 0; b < batch; ++b)
            for (std::size_t j = 0; j < gates; ++j) grad_bias_[j] += d_pre_t[b * gates + j];

        // Recurrent gradient for the previous hidden state.
        if (ti > 0) {
            dh.fill(0.0f);
            tensor::simd::gemm(batch, gates, hidden_, d_pre_t, w_recur_.data(), dh.data());
        }
        std::swap(dc, dc_prev);
    }

    // Input gradient of every step in one GEMM: row t * B + b is the
    // per-step d_pre W_in product, from zero and k-sequential over 4H.
    const Tensor dx = tensor::matmul(d_pre, w_input_);
    Tensor grad_input({batch, seq, input_});
    for (std::size_t t = 0; t < seq; ++t)
        for (std::size_t b = 0; b < batch; ++b)
            std::copy_n(dx.data() + (t * batch + b) * input_, input_,
                        grad_input.data() + (b * seq + t) * input_);
    return grad_input;
}

std::unique_ptr<Layer> Lstm::clone() const { return std::make_unique<Lstm>(*this); }

}  // namespace pipetune::nn
