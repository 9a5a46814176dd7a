#include "pipetune/nn/conv_layers.hpp"

#include <stdexcept>

#include "pipetune/tensor/ops.hpp"

namespace pipetune::nn {

Conv2D::Conv2D(std::size_t in_channels, std::size_t filters, std::size_t kernel_size,
               util::Rng& rng)
    : Conv2D(in_channels, filters, kernel_size, kernel_size, rng) {}

Conv2D::Conv2D(std::size_t in_channels, std::size_t filters, std::size_t kernel_h,
               std::size_t kernel_w, util::Rng& rng)
    : kernel_(Tensor::xavier({filters, in_channels, kernel_h, kernel_w}, rng,
                             in_channels * kernel_h * kernel_w,
                             filters * kernel_h * kernel_w)),
      bias_({filters}),
      grad_kernel_({filters, in_channels, kernel_h, kernel_w}),
      grad_bias_({filters}) {
    if (in_channels == 0 || filters == 0 || kernel_h == 0 || kernel_w == 0)
        throw std::invalid_argument("Conv2D: dimensions must be > 0");
}

Tensor Conv2D::forward(const Tensor& input, bool /*training*/) {
    cached_input_ = input;
    return tensor::conv2d(input, kernel_, bias_);
}

Tensor Conv2D::backward(const Tensor& grad_output) {
    if (cached_input_.empty()) throw std::runtime_error("Conv2D::backward before forward");
    auto grads = tensor::conv2d_backward(cached_input_, kernel_, grad_output);
    grad_kernel_ += grads.grad_kernel;
    grad_bias_ += grads.grad_bias;
    return std::move(grads.grad_input);
}

void Conv2D::backward_params_only(const Tensor& grad_output) {
    if (cached_input_.empty()) throw std::runtime_error("Conv2D::backward before forward");
    auto grads = tensor::conv2d_backward(cached_input_, kernel_, grad_output,
                                         /*input_grad=*/false);
    grad_kernel_ += grads.grad_kernel;
    grad_bias_ += grads.grad_bias;
}

std::unique_ptr<Layer> Conv2D::clone() const { return std::make_unique<Conv2D>(*this); }

MaxPool2D::MaxPool2D(std::size_t window) : window_(window) {
    if (window == 0) throw std::invalid_argument("MaxPool2D: window must be > 0");
}

Tensor MaxPool2D::forward(const Tensor& input, bool /*training*/) {
    cached_input_ = input;
    return tensor::maxpool2d(input, window_);
}

Tensor MaxPool2D::backward(const Tensor& grad_output) {
    return tensor::maxpool2d_backward(cached_input_, grad_output, window_);
}

AvgPool2D::AvgPool2D(std::size_t window) : window_(window) {
    if (window == 0) throw std::invalid_argument("AvgPool2D: window must be > 0");
}

Tensor AvgPool2D::forward(const Tensor& input, bool /*training*/) {
    cached_input_ = input;
    return tensor::avgpool2d(input, window_);
}

Tensor AvgPool2D::backward(const Tensor& grad_output) {
    return tensor::avgpool2d_backward(cached_input_, grad_output, window_);
}

Tensor GlobalMaxPoolH::forward(const Tensor& input, bool /*training*/) {
    cached_input_ = input;
    return tensor::global_maxpool_h(input);
}

Tensor GlobalMaxPoolH::backward(const Tensor& grad_output) {
    return tensor::global_maxpool_h_backward(cached_input_, grad_output);
}

Tensor ExpandToNCHW::forward(const Tensor& input, bool /*training*/) {
    if (input.rank() != 3)
        throw std::invalid_argument("ExpandToNCHW: expected (batch, seq, embed)");
    return input.reshaped({input.dim(0), 1, input.dim(1), input.dim(2)});
}

Tensor ExpandToNCHW::backward(const Tensor& grad_output) {
    return grad_output.reshaped({grad_output.dim(0), grad_output.dim(2), grad_output.dim(3)});
}

}  // namespace pipetune::nn
