// pipetune_bench — the repo's end-to-end benchmark (README.md beside this
// file; BENCHMARK.json at the repo root names the workloads and metrics).
//
//   pipetune_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out FILE] [--trace-out FILE] [--self-test]
//   pipetune_bench --workload NAME --seconds S --trace 0|1 --repeat N [--seed N]
//   pipetune_bench --smoke BENCHMARK.json
//
// Untraced runs start `--setup-probe` children to sample set-up time in
// fresh processes; traced runs start the untraced run as a child.
//
// A run prints a human summary on stderr and, as the last line of stdout,
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
// Exit 0: outputs passed the correctness gate. 1: the gate failed (the result
// line still prints). 2: usage or set-up error (no result line).

#include <spawn.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>

#include "pipetune/tensor/simd.hpp"
#include "pipetune/util/args.hpp"
#include "pipetune/util/build_info.hpp"
#include "pipetune/util/fs.hpp"
#include "run.hpp"

extern char** environ;

namespace ptbench {

namespace {

namespace fs = std::filesystem;

constexpr const char* kWorkRoot = ".bench_build/e2e";

std::string fs_type_name(const std::string& path) {
    struct statfs info {};
    if (::statfs(path.c_str(), &info) != 0) return "unknown";
    switch (static_cast<unsigned long>(info.f_type)) {
        case 0x01021994UL: return "tmpfs";
        case 0xEF53UL: return "ext4";
        case 0x794C7630UL: return "overlayfs";
        case 0x58465342UL: return "xfs";
        case 0x9123683EUL: return "btrfs";
        default: {
            char hex[32];
            std::snprintf(hex, sizeof(hex), "0x%lx", static_cast<unsigned long>(info.f_type));
            return hex;
        }
    }
}

util::Json host_fingerprint(const std::string& state_root) {
    util::Json host = util::Json::object();
    host["nproc"] = static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
    host["isa"] = pipetune::tensor::simd::to_string(pipetune::tensor::simd::best_isa());
    host["compiler"] = pipetune::util::compiler_string();
#ifdef NDEBUG
    host["build_type"] = PT_BENCH_BUILD_TYPE;
#else
    host["build_type"] = std::string(PT_BENCH_BUILD_TYPE) + " (assertions on)";
#endif
    // The durable workload writes its state and journal here, inside the
    // checkout; the filesystem decides what fsync costs.
    host["state_fs"] = fs_type_name(state_root);
    return host;
}

util::Json result_line(const RunOutcome& outcome) {
    util::Json metrics = util::Json::object();
    for (const Metric& m : outcome.metrics) {
        util::Json entry = util::Json::object();
        entry["value"] = m.value;
        entry["unit"] = m.unit;
        metrics[m.name] = std::move(entry);
    }
    util::Json line = util::Json::object();
    line["correct"] = outcome.correct;
    line["attempted"] = outcome.attempted;
    line["failed"] = outcome.failed;
    line["metrics"] = std::move(metrics);
    return line;
}

/// Runs this binary again with `args`; returns its exit code and the last
/// line it printed on stdout. stderr passes through.
std::pair<int, std::string> run_child(const std::string& self, const std::vector<std::string>& args) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
    posix_spawn_file_actions_addclose(&actions, pipe_fds[1]);
    std::vector<std::string> argv_storage = {self};
    argv_storage.insert(argv_storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& a : argv_storage) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    const int rc = ::posix_spawn(&pid, self.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(pipe_fds[1]);
    std::string output;
    if (rc == 0) {
        char buf[4096];
        ssize_t n = 0;
        while ((n = ::read(pipe_fds[0], buf, sizeof(buf))) != 0) {
            if (n > 0) output.append(buf, static_cast<std::size_t>(n));
            else if (errno != EINTR) break;
        }
    }
    ::close(pipe_fds[0]);
    if (rc != 0) throw std::runtime_error("cannot spawn " + self);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    while (!output.empty() && output.back() == '\n') output.pop_back();
    const std::size_t nl = output.rfind('\n');
    return {WIFEXITED(status) ? WEXITSTATUS(status) : 128,
            nl == std::string::npos ? output : output.substr(nl + 1)};
}

/// Python's statistics.quantiles(values, n=4) (the default, exclusive
/// method), so spreads read the same as any script that checks them.
std::vector<double> quartiles(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const long n = static_cast<long>(v.size());
    if (n == 1) return {v[0], v[0], v[0]};
    std::vector<double> out;
    for (long i = 1; i < 4; ++i) {
        long j = std::clamp(i * (n + 1) / 4, 1L, n - 1);
        const long delta = i * (n + 1) - j * 4;
        out.push_back((v[j - 1] * static_cast<double>(4 - delta) + v[j] * static_cast<double>(delta)) / 4.0);
    }
    return out;
}

/// The regression bound a metric's observed spread supports: at least 10%,
/// at least three spreads, at least the metric's absolute floor, at most 25%.
double suggested_bound(const std::string& name, const std::string& unit, double median,
                       double spread) {
    double floor_abs = 0.0;
    if (name == "setup_s") floor_abs = 0.05;
    if (unit == "ms") floor_abs = 0.5;
    const double floor_rel = median > 0 ? floor_abs / median : 0.0;
    return std::min(0.25, std::max({0.10, 3.0 * spread, floor_rel}));
}

int repeat_mode(const std::string& self, const util::Args& args, std::size_t times) {
    const std::uint64_t first_seed = args.get_uint_or("seed", 1);
    std::map<std::string, std::vector<double>> values;
    std::map<std::string, std::string> units;
    for (std::size_t k = 0; k < times; ++k) {
        const auto [code, line] = run_child(
            self, {"--workload", args.get_or("workload", ""), "--seed",
                   std::to_string(first_seed + k), "--seconds", args.get_or("seconds", "10"),
                   "--trace", args.get_or("trace", "0")});
        auto parsed = util::Json::try_parse(line);
        if (code != 0 || !parsed) {
            std::cerr << "repeat: run " << k << " exited " << code << "\n";
            return 1;
        }
        for (const auto& [name, entry] : parsed.value().at("metrics").as_object()) {
            values[name].push_back(entry.get_number("value", 0.0));
            units[name] = entry.get_string("unit", "");
        }
    }
    util::Json summary = util::Json::object();
    std::printf("%-32s %14s %14s %14s %8s %8s\n", "metric", "median", "q1", "q3", "spread",
                "bound");
    for (const auto& [name, v] : values) {
        const std::vector<double> q = quartiles(v);
        const double spread = q[1] != 0.0 ? (q[2] - q[0]) / std::abs(q[1]) : 0.0;
        const double bound = suggested_bound(name, units[name], q[1], spread);
        std::printf("%-32s %14.6g %14.6g %14.6g %8.4f %8.3f\n", name.c_str(), q[1], q[0], q[2],
                    spread, bound);
        util::Json entry = util::Json::object();
        entry["median"] = q[1];
        entry["q1"] = q[0];
        entry["q3"] = q[2];
        entry["spread"] = spread;
        entry["suggested_bound"] = bound;
        entry["unit"] = units[name];
        entry["values"] = util::Json::array_of(v);
        summary[name] = std::move(entry);
    }
    std::cout << summary.dump() << "\n";
    return 0;
}

/// Every workload BENCHMARK.json names, at ~1 s scale, traced and untraced:
/// exit 0, gate passed, every metric printed with its unit. Then each
/// self-test corruption must make the gate fail.
int smoke_mode(const std::string& self, const std::string& benchmark_json) {
    const util::Json spec = util::Json::load_file(benchmark_json);
    int failures = 0;
    auto fail = [&](const std::string& what) {
        std::cerr << "smoke: FAIL " << what << "\n";
        ++failures;
    };
    for (const util::Json& w : spec.at("workloads").as_array()) {
        const std::string name = w.get_string("name", "");
        for (const char* trace : {"0", "1"}) {
            const auto [code, line] =
                run_child(self, {"--workload", name, "--seed", "1", "--seconds", "1", "--trace", trace});
            const std::string run = name + " --trace " + trace;
            auto parsed = util::Json::try_parse(line);
            if (code != 0 || !parsed || !parsed.value().get_bool("correct", false)) {
                fail(run + ": exit " + std::to_string(code) + ", last line: " + line);
                continue;
            }
            const util::Json& printed = parsed.value().at("metrics");
            const char* list = std::string(trace) == "0" ? "end_to_end" : "per_layer";
            for (const util::Json& m : spec.at(list).as_array()) {
                const std::string metric = m.get_string("name", "");
                if (!printed.contains(metric) ||
                    printed.at(metric).get_string("unit", "") != m.get_string("unit", "?"))
                    fail(run + ": metric " + metric + " missing or with another unit");
            }
            std::cerr << "smoke: ok " << run << "\n";
        }
    }
    for (int kind = 0; kind < 5; ++kind) {
        const auto [code, line] = run_child(self, {"--workload", "submit-light", "--seed",
                                                   std::to_string(kind), "--seconds", "1",
                                                   "--trace", "0", "--self-test"});
        auto parsed = util::Json::try_parse(line);
        if (code == 0 || !parsed || parsed.value().get_bool("correct", true))
            fail("self-test corruption " + std::to_string(kind) + " was not caught");
        else
            std::cerr << "smoke: ok self-test corruption " << kind << " caught\n";
    }
    std::cerr << "smoke: " << (failures == 0 ? "PASS" : "FAIL") << "\n";
    return failures == 0 ? 0 : 1;
}

/// Set-up time varies by up to ±30% from one process to the next on a
/// shared VM (with neither the CPU nor the address layout), and far less
/// within one. So an untraced run pools its own set-ups with those of this
/// many fresh child processes.
std::size_t setup_children(const WorkloadSpec& spec) { return spec.real_backend ? 2 : 6; }

void print_summary(const RunOptions& options, const RunOutcome& outcome) {
    std::cerr << "pipetune_bench " << options.spec->name << " seed=" << options.seed
              << " seconds=" << options.seconds << " trace=" << options.trace << "\n";
    for (const Metric& m : outcome.metrics)
        std::fprintf(stderr, "  %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::cerr << "  attempted=" << outcome.attempted << " failed=" << outcome.failed
              << " gate=" << (outcome.correct ? "PASS" : "FAIL") << "\n";
    for (const std::string& e : outcome.errors) std::cerr << "  gate: " << e << "\n";
}

int run_mode(const std::string& self, const util::Args& args) {
    RunOptions options;
    const std::string workload = args.get_or("workload", "");
    options.spec = find_spec(workload);
    if (options.spec == nullptr) {
        std::cerr << "unknown --workload '" << workload << "'; one of:";
        for (const auto& s : workload_specs()) std::cerr << " " << s.name;
        std::cerr << "\n";
        return 2;
    }
    options.seed = args.get_uint_or("seed", 1);
    options.seconds = args.get_number_or("seconds", 10.0);
    options.trace = args.get_or("trace", "0") == "1";
    options.self_test = args.get_flag("self-test");
    if (!(options.seconds > 0)) {
        std::cerr << "--seconds must be positive\n";
        return 2;
    }
    options.work_dir = args.get_or("work-dir", std::string(kWorkRoot) + "/work-" +
                                                   std::to_string(::getpid()));
    if (options.trace)
        options.trace_out =
            args.get_or("trace-out", std::string(kWorkRoot) + "/trace-" + workload + "-seed" +
                                         std::to_string(options.seed) + ".json");
    fs::create_directories(kWorkRoot);

    if (args.has("setup-probe")) {
        std::cout << util::Json::array_of(time_setups(*options.spec, options.seed,
                                                      options.work_dir))
                         .dump()
                  << std::endl;
        return 0;
    }
    if (!options.trace) {
        for (std::size_t k = 0; k < setup_children(*options.spec); ++k) {
            const auto [code, line] = run_child(
                self, {"--workload", workload, "--seed", std::to_string(options.seed),
                       "--setup-probe"});
            auto parsed = util::Json::try_parse(line);
            if (code != 0 || !parsed || !parsed.value().is_array()) {
                std::cerr << "set-up probe " << k << " failed (exit " << code << ")\n";
                return 2;
            }
            for (const util::Json& s : parsed.value().as_array())
                options.child_setup_s.push_back(s.as_number());
        }
    }

    // A traced run's untraced twin runs in a child process: later passes in
    // one process read up to 25% faster than its first, so both sides of
    // trace.overhead_frac are first passes of fresh processes.
    util::Json untraced;
    if (options.trace) {
        const auto [code, line] =
            run_child(self, {"--workload", workload, "--seed", std::to_string(options.seed),
                             "--seconds", args.get_or("seconds", "10"), "--trace", "0"});
        auto parsed = util::Json::try_parse(line);
        if (!parsed || !parsed.value().contains("metrics")) {
            std::cerr << "the untraced run printed no result (exit " << code << ")\n";
            return 2;
        }
        untraced = std::move(parsed.value());
        options.untraced_p50_ms =
            untraced.at("metrics").at("latency_p50_ms").get_number("value", 0.0);
    }

    RunOutcome outcome = run_benchmark(options);
    if (options.trace) {
        outcome.attempted += static_cast<std::size_t>(untraced.get_number("attempted", 0));
        outcome.failed += static_cast<std::size_t>(untraced.get_number("failed", 0));
        if (!untraced.get_bool("correct", false)) {
            outcome.errors.push_back("the untraced run failed its gate");
            outcome.correct = false;
        }
    }
    print_summary(options, outcome);
    const std::string out_path = args.get_or("out", "");
    if (!out_path.empty()) {
        util::Json doc = result_line(outcome);
        doc["workload"] = spec_to_json(*options.spec);
        doc["seed"] = options.seed;
        doc["seconds"] = options.seconds;
        doc["trace"] = options.trace;
        doc["host"] = host_fingerprint(kWorkRoot);
        doc["details"] = outcome.details;
        util::Json errors = util::Json::array();
        for (const std::string& e : outcome.errors) errors.push_back(e);
        doc["gate_errors"] = std::move(errors);
        const auto written = pipetune::util::try_write_file_atomic(out_path, doc.dump(2) + "\n");
        if (!written.ok()) std::cerr << "cannot write " << out_path << ": " << written.error() << "\n";
    }
    std::cout << result_line(outcome).dump() << std::endl;
    return outcome.correct ? 0 : 1;
}

}  // namespace

}  // namespace ptbench

int main(int argc, char** argv) {
    using namespace ptbench;
    try {
        const util::Args args = util::Args::parse(argc, argv);
        const std::string self = "/proc/self/exe";  // children re-run this very binary
        if (args.has("smoke")) return smoke_mode(self, args.get_or("smoke", "BENCHMARK.json"));
        const std::uint64_t repeat = args.get_uint_or("repeat", 0);
        if (repeat > 0) return repeat_mode(self, args, repeat);
        return run_mode(self, args);
    } catch (const std::exception& e) {
        std::cerr << "pipetune_bench: " << e.what() << "\n";
        return 2;
    }
}
