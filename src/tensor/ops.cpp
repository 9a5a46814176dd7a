#include "pipetune/tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "pipetune/tensor/arena.hpp"
#include "pipetune/tensor/simd.hpp"

namespace pipetune::tensor {

Tensor relu(const Tensor& x) {
    Tensor y(x.shape());
    simd::relu(x.numel(), x.data(), y.data());
    return y;
}

Tensor relu_backward(const Tensor& grad_out, const Tensor& x) {
    if (grad_out.shape() != x.shape())
        throw std::invalid_argument("relu_backward: shape mismatch");
    Tensor grad = grad_out;
    simd::relu_backward(x.numel(), x.data(), grad.data());
    return grad;
}

Tensor sigmoid(const Tensor& x) {
    Tensor y = x;
    float* p = y.data();
    const std::size_t n = y.numel();
    for (std::size_t i = 0; i < n; ++i) p[i] = 1.0f / (1.0f + std::exp(-p[i]));
    return y;
}

Tensor sigmoid_backward(const Tensor& grad_out, const Tensor& y) {
    if (grad_out.shape() != y.shape())
        throw std::invalid_argument("sigmoid_backward: shape mismatch");
    Tensor grad = grad_out;
    for (std::size_t i = 0; i < grad.numel(); ++i) grad[i] *= y[i] * (1.0f - y[i]);
    return grad;
}

Tensor tanh_act(const Tensor& x) {
    // Raw loop, not apply(): a std::function call per element costs more
    // than the tanh itself at LeNet activation sizes.
    Tensor y = x;
    float* p = y.data();
    const std::size_t n = y.numel();
    for (std::size_t i = 0; i < n; ++i) p[i] = std::tanh(p[i]);
    return y;
}

Tensor tanh_backward(const Tensor& grad_out, const Tensor& y) {
    if (grad_out.shape() != y.shape())
        throw std::invalid_argument("tanh_backward: shape mismatch");
    Tensor grad = grad_out;
    for (std::size_t i = 0; i < grad.numel(); ++i) grad[i] *= 1.0f - y[i] * y[i];
    return grad;
}

Tensor softmax_rows(const Tensor& logits) {
    if (logits.rank() != 2) throw std::invalid_argument("softmax_rows: expected rank-2");
    const std::size_t batch = logits.dim(0), classes = logits.dim(1);
    Tensor probs({batch, classes});
    for (std::size_t i = 0; i < batch; ++i) {
        float row_max = logits(i, 0);
        for (std::size_t c = 1; c < classes; ++c) row_max = std::max(row_max, logits(i, c));
        float total = 0.0f;
        for (std::size_t c = 0; c < classes; ++c) {
            const float e = std::exp(logits(i, c) - row_max);
            probs(i, c) = e;
            total += e;
        }
        for (std::size_t c = 0; c < classes; ++c) probs(i, c) /= total;
    }
    return probs;
}

float cross_entropy(const Tensor& probs, const std::vector<std::size_t>& labels) {
    if (probs.rank() != 2) throw std::invalid_argument("cross_entropy: expected rank-2");
    if (labels.size() != probs.dim(0))
        throw std::invalid_argument("cross_entropy: label count mismatch");
    constexpr float kEpsilon = 1e-9f;
    float loss = 0.0f;
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (labels[i] >= probs.dim(1))
            throw std::invalid_argument("cross_entropy: label out of range");
        loss -= std::log(probs(i, labels[i]) + kEpsilon);
    }
    return loss / static_cast<float>(labels.size());
}

Tensor softmax_cross_entropy_grad(const Tensor& probs, const std::vector<std::size_t>& labels) {
    if (labels.size() != probs.dim(0))
        throw std::invalid_argument("softmax_cross_entropy_grad: label count mismatch");
    Tensor grad = probs;
    const float inv_batch = 1.0f / static_cast<float>(probs.dim(0));
    for (std::size_t i = 0; i < labels.size(); ++i) grad(i, labels[i]) -= 1.0f;
    grad *= inv_batch;
    return grad;
}

namespace {
void require_conv_shapes(const Tensor& input, const Tensor& kernel) {
    if (input.rank() != 4 || kernel.rank() != 4)
        throw std::invalid_argument("conv2d: input and kernel must be rank-4 (NCHW / FCKhKw)");
    if (input.dim(1) != kernel.dim(1))
        throw std::invalid_argument("conv2d: channel mismatch");
    if (kernel.dim(2) > input.dim(2) || kernel.dim(3) > input.dim(3))
        throw std::invalid_argument("conv2d: kernel larger than input");
}

// Patch geometry shared by the im2col formulation below: one image becomes a
// (patch_len x patches) matrix with row q = (ci*kh + ky)*kw + kx and column
// p = y*ow + x. The GEMMs consume it k-major over q — the SAME (ci, ky, kx)
// order the naive conv accumulated in, so the GEMM-backed conv is
// bit-identical to it.
struct ConvDims {
    std::size_t c, h, w, f, kh, kw, oh, ow;
    std::size_t patches() const { return oh * ow; }
    std::size_t patch_len() const { return c * kh * kw; }
};

// Gather image `img` (C x H x W) into col (patch_len x patches, row-major).
// For a fixed (q, y) the source pixels are contiguous in x, so the whole
// gather is straight ow-length row copies — the patch-major layout needed a
// kw-element copy per (patch, ci, ky) and was the single largest scalar
// residue in epoch profiles (DESIGN.md §12).
void im2col(const ConvDims& d, const float* img, float* col) {
    for (std::size_t ci = 0; ci < d.c; ++ci)
        for (std::size_t ky = 0; ky < d.kh; ++ky)
            for (std::size_t kx = 0; kx < d.kw; ++kx) {
                float* qrow = col + ((ci * d.kh + ky) * d.kw + kx) * d.patches();
                const float* src = img + (ci * d.h + ky) * d.w + kx;
                for (std::size_t y = 0; y < d.oh; ++y)
                    std::memcpy(qrow + y * d.ow, src + y * d.w, d.ow * sizeof(float));
            }
}

// Scatter-add dcol (patches x patch_len) back onto the image gradient.
void col2im_add(const ConvDims& d, const float* dcol, float* gimg) {
    for (std::size_t y = 0; y < d.oh; ++y)
        for (std::size_t x = 0; x < d.ow; ++x) {
            const float* row = dcol + (y * d.ow + x) * d.patch_len();
            for (std::size_t ci = 0; ci < d.c; ++ci)
                for (std::size_t ky = 0; ky < d.kh; ++ky) {
                    float* gin_row = gimg + (ci * d.h + (y + ky)) * d.w + x;
                    const float* in_row = row + (ci * d.kh + ky) * d.kw;
                    for (std::size_t kx = 0; kx < d.kw; ++kx) gin_row[kx] += in_row[kx];
                }
        }
}
}  // namespace

Tensor conv2d(const Tensor& input, const Tensor& kernel, const Tensor& bias) {
    require_conv_shapes(input, kernel);
    const std::size_t n = input.dim(0);
    const ConvDims d{input.dim(1), input.dim(2), input.dim(3), kernel.dim(0),
                     kernel.dim(2), kernel.dim(3), input.dim(2) - kernel.dim(2) + 1,
                     input.dim(3) - kernel.dim(3) + 1};
    if (bias.numel() != d.f) throw std::invalid_argument("conv2d: bias size mismatch");
    Tensor out({n, d.f, d.oh, d.ow});
    // out_b (F x P) = bias-broadcast + kernel (F x K) @ col (K x P): per
    // output element the k-sequential gemm accumulation replays the naive
    // (ci, ky, kx) loop starting from the bias value.
    ArenaScope scope;
    float* col = scope.alloc_floats(d.patches() * d.patch_len());
    for (std::size_t b = 0; b < n; ++b) {
        im2col(d, input.data() + b * d.c * d.h * d.w, col);
        float* out_b = out.data() + b * d.f * d.patches();
        for (std::size_t fo = 0; fo < d.f; ++fo)
            std::fill(out_b + fo * d.patches(), out_b + (fo + 1) * d.patches(), bias[fo]);
        simd::gemm(d.f, d.patch_len(), d.patches(), kernel.data(), col, out_b);
    }
    return out;
}

Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& kernel, const Tensor& grad_out,
                            bool input_grad) {
    require_conv_shapes(input, kernel);
    const std::size_t n = input.dim(0);
    const ConvDims d{input.dim(1), input.dim(2), input.dim(3), kernel.dim(0),
                     kernel.dim(2), kernel.dim(3), input.dim(2) - kernel.dim(2) + 1,
                     input.dim(3) - kernel.dim(3) + 1};
    if (grad_out.shape() != Shape{n, d.f, d.oh, d.ow})
        throw std::invalid_argument("conv2d_backward: grad_out shape mismatch");

    Conv2dGrads grads{input_grad ? Tensor({n, d.c, d.h, d.w}) : Tensor(),
                      Tensor({d.f, d.c, d.kh, d.kw}), Tensor({d.f})};
    ArenaScope scope;
    float* col = scope.alloc_floats(d.patches() * d.patch_len());
    float* dcol = input_grad ? scope.alloc_floats(d.patches() * d.patch_len()) : nullptr;
    for (std::size_t b = 0; b < n; ++b) {
        im2col(d, input.data() + b * d.c * d.h * d.w, col);
        const float* gout_b = grad_out.data() + b * d.f * d.patches();
        for (std::size_t fo = 0; fo < d.f; ++fo) {
            float acc = grads.grad_bias[fo];
            const float* grow = gout_b + fo * d.patches();
            for (std::size_t p = 0; p < d.patches(); ++p) acc += grow[p];
            grads.grad_bias[fo] = acc;
        }
        // dK (F x K) += gout_b (F x P) @ col (K x P)^T
        simd::gemm_bt(d.f, d.patches(), d.patch_len(), gout_b, col, grads.grad_kernel.data());
        if (!input_grad) continue;
        // dcol (P x K) = gout_b^T (P x F) @ kernel (F x K), then scatter.
        std::fill(dcol, dcol + d.patches() * d.patch_len(), 0.0f);
        simd::gemm_at(d.patches(), d.f, d.patch_len(), gout_b, kernel.data(), dcol);
        col2im_add(d, dcol, grads.grad_input.data() + b * d.c * d.h * d.w);
    }
    return grads;
}

Tensor maxpool2d(const Tensor& input, std::size_t window) {
    if (input.rank() != 4) throw std::invalid_argument("maxpool2d: input must be rank-4");
    if (window == 0) throw std::invalid_argument("maxpool2d: window must be > 0");
    const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2), w = input.dim(3);
    const std::size_t oh = h / window, ow = w / window;
    if (oh == 0 || ow == 0) throw std::invalid_argument("maxpool2d: window larger than input");
    Tensor out({n, c, oh, ow});
    // Pooling walks every activation element; raw plane pointers keep the
    // loop at one load per element (same max order as the indexed loop).
    const float* in = input.data();
    float* op = out.data();
    const std::size_t plane = h * w, out_plane = oh * ow;
    for (std::size_t bc = 0; bc < n * c; ++bc, in += plane, op += out_plane)
        for (std::size_t y = 0; y < oh; ++y)
            for (std::size_t x = 0; x < ow; ++x) {
                const float* win = in + (y * w + x) * window;
                float best = win[0];
                for (std::size_t dy = 0; dy < window; ++dy) {
                    const float* row = win + dy * w;
                    for (std::size_t dx = 0; dx < window; ++dx)
                        best = std::max(best, row[dx]);
                }
                op[y * ow + x] = best;
            }
    return out;
}

Tensor maxpool2d_backward(const Tensor& input, const Tensor& grad_out, std::size_t window) {
    const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2), w = input.dim(3);
    const std::size_t oh = h / window, ow = w / window;
    if (grad_out.shape() != Shape{n, c, oh, ow})
        throw std::invalid_argument("maxpool2d_backward: grad_out shape mismatch");
    Tensor grad_in({n, c, h, w});
    // Same argmax scan order as the indexed loop (first strict maximum
    // wins), so the routed gradient is bit-identical to it.
    const float* in = input.data();
    const float* go = grad_out.data();
    float* gi = grad_in.data();
    const std::size_t plane = h * w, out_plane = oh * ow;
    for (std::size_t bc = 0; bc < n * c; ++bc, in += plane, go += out_plane, gi += plane)
        for (std::size_t y = 0; y < oh; ++y)
            for (std::size_t x = 0; x < ow; ++x) {
                const std::size_t base = (y * w + x) * window;
                std::size_t best_off = base;
                float best = in[base];
                for (std::size_t dy = 0; dy < window; ++dy) {
                    const std::size_t row = base + dy * w;
                    for (std::size_t dx = 0; dx < window; ++dx)
                        if (in[row + dx] > best) {
                            best = in[row + dx];
                            best_off = row + dx;
                        }
                }
                gi[best_off] += go[y * ow + x];
            }
    return grad_in;
}

Tensor avgpool2d(const Tensor& input, std::size_t window) {
    if (input.rank() != 4) throw std::invalid_argument("avgpool2d: input must be rank-4");
    if (window == 0) throw std::invalid_argument("avgpool2d: window must be > 0");
    const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2), w = input.dim(3);
    const std::size_t oh = h / window, ow = w / window;
    if (oh == 0 || ow == 0) throw std::invalid_argument("avgpool2d: window larger than input");
    const float inv = 1.0f / static_cast<float>(window * window);
    Tensor out({n, c, oh, ow});
    const float* in = input.data();
    float* op = out.data();
    const std::size_t plane = h * w, out_plane = oh * ow;
    for (std::size_t bc = 0; bc < n * c; ++bc, in += plane, op += out_plane)
        for (std::size_t y = 0; y < oh; ++y)
            for (std::size_t x = 0; x < ow; ++x) {
                const float* win = in + (y * w + x) * window;
                float acc = 0.0f;
                for (std::size_t dy = 0; dy < window; ++dy) {
                    const float* row = win + dy * w;
                    for (std::size_t dx = 0; dx < window; ++dx) acc += row[dx];
                }
                op[y * ow + x] = acc * inv;
            }
    return out;
}

Tensor avgpool2d_backward(const Tensor& input, const Tensor& grad_out, std::size_t window) {
    const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2), w = input.dim(3);
    const std::size_t oh = h / window, ow = w / window;
    if (grad_out.shape() != Shape{n, c, oh, ow})
        throw std::invalid_argument("avgpool2d_backward: grad_out shape mismatch");
    const float inv = 1.0f / static_cast<float>(window * window);
    Tensor grad_in({n, c, h, w});
    const float* go = grad_out.data();
    float* gi = grad_in.data();
    const std::size_t plane = h * w, out_plane = oh * ow;
    for (std::size_t bc = 0; bc < n * c; ++bc, go += out_plane, gi += plane)
        for (std::size_t y = 0; y < oh; ++y)
            for (std::size_t x = 0; x < ow; ++x) {
                const float g = go[y * ow + x] * inv;
                float* win = gi + (y * w + x) * window;
                for (std::size_t dy = 0; dy < window; ++dy) {
                    float* row = win + dy * w;
                    for (std::size_t dx = 0; dx < window; ++dx) row[dx] += g;
                }
            }
    return grad_in;
}

Tensor global_maxpool_h(const Tensor& input) {
    if (input.rank() != 4) throw std::invalid_argument("global_maxpool_h: input must be rank-4");
    const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2), w = input.dim(3);
    Tensor out({n, c, 1, w});
    for (std::size_t b = 0; b < n; ++b)
        for (std::size_t ci = 0; ci < c; ++ci)
            for (std::size_t x = 0; x < w; ++x) {
                float best = input(b, ci, 0, x);
                for (std::size_t y = 1; y < h; ++y) best = std::max(best, input(b, ci, y, x));
                out(b, ci, 0, x) = best;
            }
    return out;
}

Tensor global_maxpool_h_backward(const Tensor& input, const Tensor& grad_out) {
    const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2), w = input.dim(3);
    if (grad_out.shape() != Shape{n, c, 1, w})
        throw std::invalid_argument("global_maxpool_h_backward: grad_out shape mismatch");
    Tensor grad_in({n, c, h, w});
    for (std::size_t b = 0; b < n; ++b)
        for (std::size_t ci = 0; ci < c; ++ci)
            for (std::size_t x = 0; x < w; ++x) {
                std::size_t best_y = 0;
                float best = input(b, ci, 0, x);
                for (std::size_t y = 1; y < h; ++y)
                    if (input(b, ci, y, x) > best) {
                        best = input(b, ci, y, x);
                        best_y = y;
                    }
                grad_in(b, ci, best_y, x) += grad_out(b, ci, 0, x);
            }
    return grad_in;
}

}  // namespace pipetune::tensor
