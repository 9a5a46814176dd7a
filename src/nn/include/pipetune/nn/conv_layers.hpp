#pragma once
// Convolution and pooling layers (NCHW, valid padding, unit stride) used by
// LeNet-5 and the TextCNN.

#include "pipetune/nn/layer.hpp"
#include "pipetune/util/rng.hpp"

namespace pipetune::nn {

/// 2-D convolution, kernel (filters, in_channels, kh, kw). Rectangular
/// kernels let the TextCNN convolve over (time, embedding) with kw = embed.
class Conv2D : public Layer {
public:
    Conv2D(std::size_t in_channels, std::size_t filters, std::size_t kernel_size,
           util::Rng& rng);
    Conv2D(std::size_t in_channels, std::size_t filters, std::size_t kernel_h,
           std::size_t kernel_w, util::Rng& rng);

    Tensor forward(const Tensor& input, bool training) override;
    Tensor backward(const Tensor& grad_output) override;
    /// Skips the input-gradient GEMM and col2im scatter (LeNet's conv1).
    void backward_params_only(const Tensor& grad_output) override;
    std::vector<Tensor*> params() override { return {&kernel_, &bias_}; }
    std::vector<Tensor*> grads() override { return {&grad_kernel_, &grad_bias_}; }
    std::string name() const override { return "Conv2D"; }
    std::unique_ptr<Layer> clone() const override;

private:
    Tensor kernel_, bias_;
    Tensor grad_kernel_, grad_bias_;
    Tensor cached_input_;
};

/// Non-overlapping max pooling.
class MaxPool2D : public Layer {
public:
    explicit MaxPool2D(std::size_t window);

    Tensor forward(const Tensor& input, bool training) override;
    Tensor backward(const Tensor& grad_output) override;
    std::string name() const override { return "MaxPool2D"; }
    std::unique_ptr<Layer> clone() const override { return std::make_unique<MaxPool2D>(window_); }

private:
    std::size_t window_;
    Tensor cached_input_;
};

/// Non-overlapping average pooling — classic LeNet-5 subsampling.
class AvgPool2D : public Layer {
public:
    explicit AvgPool2D(std::size_t window);

    Tensor forward(const Tensor& input, bool training) override;
    Tensor backward(const Tensor& grad_output) override;
    std::string name() const override { return "AvgPool2D"; }
    std::unique_ptr<Layer> clone() const override { return std::make_unique<AvgPool2D>(window_); }

private:
    std::size_t window_;
    Tensor cached_input_;
};

/// Max-over-time pooling for the TextCNN: (N, C, H, W) -> (N, C, 1, W).
class GlobalMaxPoolH : public Layer {
public:
    Tensor forward(const Tensor& input, bool training) override;
    Tensor backward(const Tensor& grad_output) override;
    std::string name() const override { return "GlobalMaxPoolH"; }
    std::unique_ptr<Layer> clone() const override { return std::make_unique<GlobalMaxPoolH>(); }

private:
    Tensor cached_input_;
};

/// Reshape (batch, seq, embed) -> (batch, 1, seq, embed) so conv layers can
/// consume embedding output.
class ExpandToNCHW : public Layer {
public:
    Tensor forward(const Tensor& input, bool training) override;
    Tensor backward(const Tensor& grad_output) override;
    std::string name() const override { return "ExpandToNCHW"; }
    std::unique_ptr<Layer> clone() const override { return std::make_unique<ExpandToNCHW>(); }
};

}  // namespace pipetune::nn
