#include "pipetune/data/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "pipetune/util/rng.hpp"
#include "pipetune/util/worker_team.hpp"

namespace pipetune::data {

namespace {
// Row blocks fan out on the calling thread's worker team, so an iteration
// costs no thread start-up and a slot holds at most workers - 1 helpers.
void parallel_rows(std::size_t workers, std::size_t rows,
                   const std::function<void(std::size_t, std::size_t)>& body) {
    workers = std::max<std::size_t>(1, workers);
    if (workers == 1 || rows < 2 * workers) {
        body(0, rows);
        return;
    }
    const std::size_t chunk = (rows + workers - 1) / workers;
    util::fan_out(workers, [&](std::size_t w) {
        const std::size_t begin = w * chunk;
        const std::size_t end = std::min(begin + chunk, rows);
        if (begin < end) body(begin, end);
    });
}
}  // namespace

JacobiKernel::JacobiKernel(std::size_t grid_size, std::uint64_t seed) : n_(grid_size) {
    if (grid_size < 4) throw std::invalid_argument("JacobiKernel: grid too small");
    util::Rng rng(seed);
    grid_.assign(n_ * n_, 0.0);
    // Random hot boundary, cold interior: a classic heat-diffusion setup.
    for (std::size_t i = 0; i < n_; ++i) {
        grid_[i] = rng.uniform(0.5, 1.0);                  // top row
        grid_[(n_ - 1) * n_ + i] = rng.uniform(0.0, 0.3);  // bottom row
        grid_[i * n_] = rng.uniform(0.2, 0.8);             // left column
        grid_[i * n_ + n_ - 1] = rng.uniform(0.2, 0.8);    // right column
    }
    next_ = grid_;
    initial_residual_ = compute_residual();
    last_residual_ = initial_residual_;
}

double JacobiKernel::compute_residual() const {
    double acc = 0.0;
    for (std::size_t y = 1; y + 1 < n_; ++y)
        for (std::size_t x = 1; x + 1 < n_; ++x) {
            const double stencil = 0.25 * (grid_[(y - 1) * n_ + x] + grid_[(y + 1) * n_ + x] +
                                           grid_[y * n_ + x - 1] + grid_[y * n_ + x + 1]);
            const double diff = stencil - grid_[y * n_ + x];
            acc += diff * diff;
        }
    return std::sqrt(acc);
}

void JacobiKernel::run_iteration(std::size_t workers) {
    parallel_rows(workers, n_ - 2, [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
            const std::size_t y = r + 1;
            for (std::size_t x = 1; x + 1 < n_; ++x)
                next_[y * n_ + x] = 0.25 * (grid_[(y - 1) * n_ + x] + grid_[(y + 1) * n_ + x] +
                                            grid_[y * n_ + x - 1] + grid_[y * n_ + x + 1]);
        }
    });
    std::swap(grid_, next_);
    last_residual_ = compute_residual();
    ++iterations_;
}

double JacobiKernel::score() const {
    if (initial_residual_ <= 0) return 100.0;
    const double reduction = 1.0 - last_residual_ / initial_residual_;
    return std::clamp(reduction, 0.0, 1.0) * 100.0;
}

bool JacobiKernel::converged() const {
    return last_residual_ < 1e-4 * initial_residual_;
}

BfsKernel::BfsKernel(std::size_t nodes, std::size_t avg_degree, std::uint64_t seed) {
    if (nodes < 2) throw std::invalid_argument("BfsKernel: need at least 2 nodes");
    util::Rng rng(seed);
    adjacency_.resize(nodes);
    // Connected backbone (random tree) plus random extra edges for the
    // requested average degree.
    for (std::size_t v = 1; v < nodes; ++v) {
        const auto parent = static_cast<std::uint32_t>(rng.index(v));
        adjacency_[v].push_back(parent);
        adjacency_[parent].push_back(static_cast<std::uint32_t>(v));
    }
    const std::size_t extra_edges = nodes * avg_degree / 2;
    for (std::size_t e = 0; e < extra_edges; ++e) {
        const auto a = static_cast<std::uint32_t>(rng.index(nodes));
        const auto b = static_cast<std::uint32_t>(rng.index(nodes));
        if (a == b) continue;
        adjacency_[a].push_back(b);
        adjacency_[b].push_back(a);
    }
    visited_.assign(nodes, false);
    visited_[0] = true;
    visited_count_ = 1;
    frontier_.push_back(0);
}

void BfsKernel::run_iteration(std::size_t workers) {
    if (frontier_.empty()) return;
    // Per-worker next-frontier buffers; duplicates are resolved when merging
    // (level-synchronous BFS is the Rodinia formulation).
    workers = std::max<std::size_t>(1, workers);
    std::vector<std::vector<std::uint32_t>> local_next(workers);
    parallel_rows(workers, frontier_.size(), [&](std::size_t begin, std::size_t end) {
        // Identify this chunk's worker slot by its begin offset.
        const std::size_t chunk = (frontier_.size() + workers - 1) / workers;
        const std::size_t slot = std::min(begin / std::max<std::size_t>(1, chunk), workers - 1);
        for (std::size_t i = begin; i < end; ++i)
            for (std::uint32_t neighbor : adjacency_[frontier_[i]])
                if (!visited_[neighbor]) local_next[slot].push_back(neighbor);
    });
    std::vector<std::uint32_t> next;
    for (auto& bucket : local_next)
        for (std::uint32_t v : bucket)
            if (!visited_[v]) {
                visited_[v] = true;
                ++visited_count_;
                next.push_back(v);
            }
    frontier_ = std::move(next);
    ++iterations_;
}

double BfsKernel::score() const {
    return 100.0 * static_cast<double>(visited_count_) / static_cast<double>(adjacency_.size());
}

SpKMeansKernel::SpKMeansKernel(std::size_t points, std::size_t dims, std::size_t k,
                               std::uint64_t seed)
    : dims_(dims), k_(k) {
    if (points < k || k == 0 || dims == 0)
        throw std::invalid_argument("SpKMeansKernel: invalid sizes");
    util::Rng rng(seed);
    // Synthetic gaussian clusters around k well-separated centres.
    std::vector<double> true_centres(k * dims);
    for (auto& c : true_centres) c = rng.uniform(-10.0, 10.0);
    points_.resize(points * dims);
    for (std::size_t p = 0; p < points; ++p) {
        const std::size_t c = p % k;
        for (std::size_t d = 0; d < dims; ++d)
            points_[p * dims + d] = true_centres[c * dims + d] + rng.normal(0.0, 1.0);
    }
    // Random initial centroids drawn from the data.
    centroids_.resize(k * dims);
    for (std::size_t c = 0; c < k; ++c) {
        const std::size_t p = rng.index(points);
        for (std::size_t d = 0; d < dims; ++d) centroids_[c * dims + d] = points_[p * dims + d];
    }
    assignment_.assign(points, 0);
    // Initial inertia under the random centroids.
    double acc = 0.0;
    for (std::size_t p = 0; p < points; ++p) {
        double best = std::numeric_limits<double>::max();
        for (std::size_t c = 0; c < k; ++c) {
            double dist = 0.0;
            for (std::size_t d = 0; d < dims; ++d) {
                const double delta = points_[p * dims + d] - centroids_[c * dims + d];
                dist += delta * delta;
            }
            best = std::min(best, dist);
        }
        acc += best;
    }
    initial_inertia_ = acc;
    last_inertia_ = acc;
}

void SpKMeansKernel::run_iteration(std::size_t workers) {
    const std::size_t points = assignment_.size();
    std::vector<std::size_t> new_assignment(points);
    std::vector<double> inertia_parts(std::max<std::size_t>(1, workers), 0.0);
    workers = std::max<std::size_t>(1, workers);
    const std::size_t chunk = (points + workers - 1) / workers;
    parallel_rows(workers, points, [&](std::size_t begin, std::size_t end) {
        const std::size_t slot = std::min(begin / std::max<std::size_t>(1, chunk), workers - 1);
        for (std::size_t p = begin; p < end; ++p) {
            double best = std::numeric_limits<double>::max();
            std::size_t best_c = 0;
            for (std::size_t c = 0; c < k_; ++c) {
                double dist = 0.0;
                for (std::size_t d = 0; d < dims_; ++d) {
                    const double delta = points_[p * dims_ + d] - centroids_[c * dims_ + d];
                    dist += delta * delta;
                }
                if (dist < best) {
                    best = dist;
                    best_c = c;
                }
            }
            new_assignment[p] = best_c;
            inertia_parts[slot] += best;
        }
    });
    converged_ = (new_assignment == assignment_) && iterations_ > 0;
    assignment_ = std::move(new_assignment);
    last_inertia_ = 0.0;
    for (double part : inertia_parts) last_inertia_ += part;

    // Update step.
    std::vector<double> sums(k_ * dims_, 0.0);
    std::vector<std::size_t> counts(k_, 0);
    for (std::size_t p = 0; p < points; ++p) {
        const std::size_t c = assignment_[p];
        ++counts[c];
        for (std::size_t d = 0; d < dims_; ++d) sums[c * dims_ + d] += points_[p * dims_ + d];
    }
    for (std::size_t c = 0; c < k_; ++c)
        if (counts[c] > 0)
            for (std::size_t d = 0; d < dims_; ++d)
                centroids_[c * dims_ + d] = sums[c * dims_ + d] / static_cast<double>(counts[c]);
    ++iterations_;
}

double SpKMeansKernel::score() const {
    if (initial_inertia_ <= 0) return 100.0;
    const double improvement = 1.0 - last_inertia_ / initial_inertia_;
    return std::clamp(improvement, 0.0, 1.0) * 100.0;
}

std::unique_ptr<IterativeKernel> make_kernel(const std::string& kernel_name, std::uint64_t seed) {
    if (kernel_name == "jacobi") return std::make_unique<JacobiKernel>(64, seed);
    if (kernel_name == "bfs") return std::make_unique<BfsKernel>(20000, 4, seed);
    if (kernel_name == "spkmeans") return std::make_unique<SpKMeansKernel>(4000, 8, 10, seed);
    throw std::invalid_argument("make_kernel: unknown kernel '" + kernel_name + "'");
}

}  // namespace pipetune::data
