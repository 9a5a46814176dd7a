#pragma once
// Neural-network kernels over Tensor: activations, softmax, valid 2-D
// convolution and max pooling, each with its backward pass. Layout is NCHW.
// These free functions are the compute inside the nn:: layers; keeping them
// here lets tests verify each kernel against finite differences in isolation.

#include "pipetune/tensor/tensor.hpp"

namespace pipetune::tensor {

// ---- Activations (elementwise) ----
Tensor relu(const Tensor& x);
/// dL/dx given dL/dy and the forward input x.
Tensor relu_backward(const Tensor& grad_out, const Tensor& x);
Tensor sigmoid(const Tensor& x);
/// dL/dx given dL/dy and the forward *output* y = sigmoid(x).
Tensor sigmoid_backward(const Tensor& grad_out, const Tensor& y);
Tensor tanh_act(const Tensor& x);
/// dL/dx given dL/dy and the forward *output* y = tanh(x).
Tensor tanh_backward(const Tensor& grad_out, const Tensor& y);

/// Row-wise softmax of a (batch, classes) tensor; numerically stabilized.
Tensor softmax_rows(const Tensor& logits);

/// Cross-entropy loss of row-softmax probabilities against integer labels;
/// returns mean loss. probs must be the output of softmax_rows.
float cross_entropy(const Tensor& probs, const std::vector<std::size_t>& labels);

/// Combined softmax+cross-entropy gradient: (probs - onehot(labels)) / batch.
Tensor softmax_cross_entropy_grad(const Tensor& probs, const std::vector<std::size_t>& labels);

// ---- Convolution (valid padding, unit stride, NCHW) ----
// input: (N, C, H, W), kernel: (F, C, KH, KW), bias: (F)
// output: (N, F, H-KH+1, W-KW+1)
Tensor conv2d(const Tensor& input, const Tensor& kernel, const Tensor& bias);

struct Conv2dGrads {
    Tensor grad_input;
    Tensor grad_kernel;
    Tensor grad_bias;
};
/// With `input_grad` false, grad_input is left empty and its GEMM and
/// scatter are skipped; grad_kernel and grad_bias are unchanged by the flag.
Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& kernel, const Tensor& grad_out,
                            bool input_grad = true);

// ---- Max pooling (non-overlapping window, NCHW) ----
// Truncates trailing rows/cols that do not fill a window (matches BigDL's
// default floor behaviour).
Tensor maxpool2d(const Tensor& input, std::size_t window);
/// Recomputes the argmax from the forward input (window small, cheap).
Tensor maxpool2d_backward(const Tensor& input, const Tensor& grad_out, std::size_t window);

// ---- Average pooling (non-overlapping window, NCHW) ----
Tensor avgpool2d(const Tensor& input, std::size_t window);
Tensor avgpool2d_backward(const Tensor& input, const Tensor& grad_out, std::size_t window);

/// Global max over the H dimension of a (N, C, H, W) tensor -> (N, C, 1, W).
/// Used as max-over-time pooling in the TextCNN.
Tensor global_maxpool_h(const Tensor& input);
Tensor global_maxpool_h_backward(const Tensor& input, const Tensor& grad_out);

}  // namespace pipetune::tensor
