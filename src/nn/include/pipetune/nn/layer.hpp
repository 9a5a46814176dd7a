#pragma once
// Layer abstraction for the from-scratch NN engine.
//
// The engine replaces the paper's BigDL/Spark substrate. PipeTune itself only
// observes epoch-level metrics, so the engine's contract is deliberately
// small: forward, backward with cached activations, and parameter/gradient
// exposure for the SGD optimizer. clone() exists for the data-parallel
// trainer, which keeps one model replica per worker (synchronous minibatch
// SGD, the mechanism behind the paper's cores-vs-batch-size trade-off).

#include <memory>
#include <string>
#include <vector>

#include "pipetune/tensor/tensor.hpp"

namespace pipetune::nn {

using tensor::Tensor;

class Layer {
public:
    virtual ~Layer() = default;

    /// Compute output for `input`; `training` toggles dropout-style behaviour.
    /// Implementations cache what backward() needs.
    virtual Tensor forward(const Tensor& input, bool training) = 0;

    /// Given dL/d(output), return dL/d(input) and accumulate parameter grads.
    /// Must be called after forward() on the same input.
    virtual Tensor backward(const Tensor& grad_output) = 0;

    /// backward() for a layer whose input gradient nobody reads (a model's
    /// first layer): accumulate the parameter grads only. A layer whose input
    /// gradient costs real work overrides this to skip it.
    virtual void backward_params_only(const Tensor& grad_output) { (void)backward(grad_output); }

    /// Trainable parameters and their gradient buffers, index-aligned.
    virtual std::vector<Tensor*> params() { return {}; }
    virtual std::vector<Tensor*> grads() { return {}; }

    /// Zero all gradient buffers.
    void zero_grad() {
        for (Tensor* g : grads()) g->fill(0.0f);
    }

    virtual std::string name() const = 0;

    /// Deep copy, including parameters (replicas for data-parallel workers).
    virtual std::unique_ptr<Layer> clone() const = 0;

    /// Number of trainable scalars.
    std::size_t param_count() {
        std::size_t n = 0;
        for (Tensor* p : params()) n += p->numel();
        return n;
    }
};

}  // namespace pipetune::nn
