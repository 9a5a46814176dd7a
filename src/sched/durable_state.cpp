#include "durable_state.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <utility>

#include "pipetune/ft/recovery.hpp"
#include "pipetune/util/fs.hpp"
#include "pipetune/util/logging.hpp"

namespace pipetune::sched {

namespace {

std::uint64_t file_bytes(const std::string& path) {
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(bytes);
}

std::string hex64(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
    return std::string(buf);
}

/// The ground_truth.json text of `entries` (what a snapshot writes).
std::string truth_text(const std::vector<core::GroundTruthEntry>& entries) {
    return core::GroundTruth::entries_to_json(entries).dump(2) + "\n";
}

/// Checksum of `text`, the ground_truth.json text of `n` entries, taken the
/// way the journal checksums a record.
std::string truth_digest(std::size_t n, const std::string& text) {
    return hex64(ft::Journal::checksum(n, "ground_truth", text));
}

/// Digest of the file text the first `n` of `entries` would have.
std::string prefix_digest(const std::vector<core::GroundTruthEntry>& entries, std::size_t n) {
    return truth_digest(
        n, truth_text({entries.begin(), entries.begin() + static_cast<std::ptrdiff_t>(n)}));
}

util::Json completion_payload(std::uint64_t job_id) {
    util::Json payload = util::Json::object();
    payload["job_id"] = job_id;
    return payload;
}

/// The checksum of job `job_id`'s job_completed record at `seq`.
std::string completion_crc(std::uint64_t seq, std::uint64_t job_id) {
    return hex64(ft::Journal::checksum(seq, ft::record_type::kJobCompleted,
                                       completion_payload(job_id).dump()));
}

}  // namespace

std::string DurableState::manifest_path(const std::string& state_dir) {
    return state_dir + "/snapshot.json";
}

DurableState::DurableState(SharedClusterState& state, std::string state_dir,
                           ft::Journal* journal, const core::GroundTruthConfig& config,
                           Instruments instruments)
    : state_(state), dir_(std::move(state_dir)), journal_(journal), obs_(instruments) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        throw std::runtime_error("ConcurrentPipeTuneService: cannot create state dir '" + dir_ +
                                 "': " + ec.message());
    load(config);
}

DurableState::~DurableState() { stop_compactor(); }

void DurableState::load(const core::GroundTruthConfig& config) {
    const std::string truth_path = SharedClusterState::ground_truth_path(dir_);
    std::error_code ec;
    std::vector<core::GroundTruthEntry> entries;
    if (std::filesystem::exists(truth_path, ec)) {
        auto loaded = core::GroundTruth::try_load_entries(truth_path);
        if (!loaded) throw std::runtime_error("state dir: " + loaded.error());
        entries = std::move(loaded).value();
    }
    // A missing journal is an empty one: nothing to replay.
    std::optional<ft::RecoveryPlan> plan;
    if (journal_ != nullptr)
        if (auto analyzed = ft::Recovery::analyze(journal_->path()))
            plan = std::move(analyzed).value();

    // Without a manifest that applies, ground_truth.json was not written
    // against this journal: all of it is prefix, and every completed job is
    // tail.
    disk_ = Manifest{0, "", entries.size(), ""};
    manifest_on_disk_ = std::filesystem::exists(manifest_path(dir_), ec);
    if (manifest_on_disk_) {
        auto json = util::Json::try_load_file(manifest_path(dir_));
        if (!json) throw std::runtime_error("state dir: " + json.error());
        Manifest claimed;
        claimed.journal_seq =
            static_cast<std::uint64_t>(json.value().get_number("journal_seq", 0.0));
        claimed.journal_crc = json.value().get_string("journal_crc", "");
        claimed.entries =
            static_cast<std::size_t>(json.value().get_number("ground_truth_entries", 0.0));
        claimed.entries_crc = json.value().get_string("ground_truth_crc", "");
        // The file still starts with the claimed entries (the committed list
        // only grows), and the journal's record S is the one the manifest
        // saw. Without a journal there is no record S to check.
        bool holds = claimed.entries <= entries.size() &&
                     prefix_digest(entries, claimed.entries) == claimed.entries_crc;
        if (holds && journal_ != nullptr && claimed.journal_seq > 0) {
            holds = false;
            if (plan)
                for (const ft::RecoveredJob& job : plan->jobs)
                    if (job.completed && job.completed_seq == claimed.journal_seq)
                        holds = completion_crc(job.completed_seq, job.job_id) ==
                                claimed.journal_crc;
        }
        if (holds) {
            disk_ = claimed;
            manifest_holds_ = true;
        } else {
            PT_LOG_WARN("sched").field("dir", dir_)
                << manifest_path(dir_)
                << " does not describe this ground_truth.json and journal; reading all of "
                   "the file as seq 0";
        }
    }
    committed_seq_ = disk_.journal_seq;
    committed_crc_ = disk_.journal_crc;
    if (journal_ != nullptr) {
        entries.resize(disk_.entries);
        if (plan) {
            for (const ft::RecoveredGtMutation& mutation : plan->ground_truth) {
                core::GroundTruthEntry entry{mutation.features, mutation.best_system,
                                             mutation.metric};
                if (mutation.completed_seq > disk_.journal_seq) entries.push_back(entry);
                recovered_.push_back(std::move(entry));
            }
            for (const ft::RecoveredJob& job : plan->jobs)
                if (job.completed && job.completed_seq > committed_seq_) {
                    committed_seq_ = job.completed_seq;
                    committed_crc_ = completion_crc(job.completed_seq, job.job_id);
                }
        }
        if (entries.size() > disk_.entries)
            PT_LOG_INFO("sched").field("tail_entries", entries.size() - disk_.entries)
                << "applied the journal tail past snapshot seq " << disk_.journal_seq;
    }
    entries_ = entries;
    if (!entries.empty())
        state_.set_ground_truth(core::GroundTruth::from_entries(std::move(entries), config));
    const std::string metrics_path = SharedClusterState::metrics_path(dir_);
    if (std::filesystem::exists(metrics_path, ec)) {
        auto loaded = metricsdb::TimeSeriesDb::try_load(metrics_path);
        if (!loaded) throw std::runtime_error("state dir: " + loaded.error());
        state_.set_metrics(std::move(loaded).value());
    }
    snapshot_bytes_ = file_bytes(truth_path) + file_bytes(metrics_path);
}

void DurableState::commit_base(const std::vector<core::GroundTruthEntry>& entries) {
    std::uint64_t gen = 0;
    {
        std::lock_guard<std::mutex> lock(commit_mutex_);
        uncaptured_.insert(uncaptured_.end(), entries.begin(), entries.end());
        gen = ++commit_gen_;
    }
    std::lock_guard<std::mutex> lock(compactor_mutex_);
    request_locked(gen);
}

void DurableState::commit_job(std::uint64_t job_id,
                              std::vector<core::GroundTruthEntry> entries) {
    std::uint64_t seq = 0;
    std::uint64_t gen = 0;
    {
        std::lock_guard<std::mutex> lock(commit_mutex_);
        if (journal_ != nullptr) {
            auto written =
                journal_->write(ft::record_type::kJobCompleted, completion_payload(job_id));
            // Not journaled as completed, so not committed: recovery will
            // see the job as pending and re-run it.
            if (!written) return;
            seq = written.value();
            committed_seq_ = seq;
            committed_crc_ = completion_crc(seq, job_id);
        }
        std::move(entries.begin(), entries.end(), std::back_inserter(uncaptured_));
        gen = ++commit_gen_;
    }
    if (journal_ != nullptr) {
        (void)journal_->sync(seq);
        std::lock_guard<std::mutex> lock(compactor_mutex_);
        const std::uint64_t tail = journal_->bytes_written() - journal_bytes_at_snapshot_;
        if (requested_gen_ <= snapshotted_gen_ &&
            tail >= std::max(snapshot_bytes_, kMinTailBytes))
            request_locked(gen);
        return;
    }
    // No journal, no tail: the snapshot is the completion's durability, and
    // its failure is the job's.
    std::unique_lock<std::mutex> lock(compactor_mutex_);
    request_locked(gen);
    compactor_cv_.wait(lock, [&] { return snapshotted_gen_ >= gen || compactor_stop_; });
    if (snapshotted_gen_ >= gen && snapshot_error_) std::rethrow_exception(snapshot_error_);
}

void DurableState::request_locked(std::uint64_t gen) {
    if (compactor_stop_) return;
    if (!compactor_.joinable()) compactor_ = std::thread([this] { run_compactor(); });
    requested_gen_ = std::max(requested_gen_, gen);
    compactor_cv_.notify_all();
}

void DurableState::run_compactor() {
    std::unique_lock<std::mutex> lock(compactor_mutex_);
    while (true) {
        compactor_cv_.wait(lock,
                           [&] { return compactor_stop_ || requested_gen_ > snapshotted_gen_; });
        if (compactor_stop_) return;
        lock.unlock();
        try {
            snapshot();
        } catch (const std::exception& e) {
            PT_LOG_ERROR("sched").field("dir", dir_) << "snapshot failed: " << e.what();
        } catch (...) {
            PT_LOG_ERROR("sched").field("dir", dir_) << "snapshot failed";
        }
        lock.lock();
    }
}

void DurableState::stop_compactor() {
    {
        std::lock_guard<std::mutex> lock(compactor_mutex_);
        compactor_stop_ = true;
        compactor_cv_.notify_all();
    }
    if (compactor_.joinable()) compactor_.join();
}

void DurableState::snapshot_if_dirty() {
    std::uint64_t gen = 0;
    {
        std::lock_guard<std::mutex> lock(commit_mutex_);
        gen = commit_gen_;
    }
    bool dirty = false;
    {
        std::lock_guard<std::mutex> lock(compactor_mutex_);
        dirty = gen > snapshotted_gen_;
    }
    if (dirty) snapshot();
}

void DurableState::write_manifest(const Manifest& manifest) {
    util::Json json = util::Json::object();
    json["journal_seq"] = manifest.journal_seq;
    json["journal_crc"] = manifest.journal_crc;
    json["ground_truth_entries"] = manifest.entries;
    json["ground_truth_crc"] = manifest.entries_crc;
    json.save_file(manifest_path(dir_));
    disk_ = manifest;
    manifest_on_disk_ = manifest_holds_ = true;
}

void DurableState::snapshot() {
    std::lock_guard<std::mutex> one_at_a_time(snapshot_mutex_);
    std::uint64_t gen = 0;
    std::uint64_t seq = 0;
    std::string crc;
    std::uint64_t journal_bytes = 0;
    {
        std::lock_guard<std::mutex> lock(commit_mutex_);
        std::move(uncaptured_.begin(), uncaptured_.end(), std::back_inserter(entries_));
        uncaptured_.clear();
        gen = commit_gen_;
        seq = committed_seq_;
        crc = committed_crc_;
        journal_bytes = journal_ != nullptr ? journal_->bytes_written() : 0;
    }
    // Waiters learn that `gen` is covered however this ends: written,
    // skipped after a crash, or failed (the error propagates, and reaches
    // the waiters too).
    auto publish = [&](std::uint64_t bytes, std::exception_ptr error) {
        {
            std::lock_guard<std::mutex> lock(compactor_mutex_);
            snapshotted_gen_ = std::max(snapshotted_gen_, gen);
            snapshot_error_ = std::move(error);
            journal_bytes_at_snapshot_ = journal_bytes;
            if (bytes > 0) snapshot_bytes_ = bytes;
        }
        compactor_cv_.notify_all();
    };
    std::uint64_t bytes = 0;
    try {
        if (!crashed_.load(std::memory_order_acquire)) bytes = write_files(seq, crc);
    } catch (...) {
        publish(0, std::current_exception());
        throw;
    }
    publish(bytes, nullptr);
}

std::uint64_t DurableState::write_files(std::uint64_t seq, const std::string& crc) {
    obs::Tracer::Span span;
    const double start_s = obs_.obs != nullptr ? obs_.obs->tracer().now_s() : 0.0;
    if (obs_.obs != nullptr) span = obs_.obs->tracer().span("snapshot", "ft");
    // The manifest may claim seq S only once S is durable.
    if (journal_ != nullptr) {
        auto synced = journal_->sync(seq);
        if (!synced) throw std::runtime_error("snapshot: " + synced.error());
    }
    const metricsdb::TimeSeriesDb metrics = state_.metrics_snapshot();
    const std::string ground_truth = truth_text(entries_);
    const std::string metrics_text = metrics.dump_json() + "\n";
    const bool moved = seq != disk_.journal_seq || entries_.size() != disk_.entries;
    // The first manifest a journal's snapshot writes goes down before the
    // file it would otherwise misdescribe, saying what the old files meant.
    if (journal_ != nullptr && moved && !manifest_holds_) {
        Manifest old = disk_;
        old.entries_crc = prefix_digest(entries_, old.entries);
        write_manifest(old);
    }
    util::write_file_atomic(SharedClusterState::ground_truth_path(dir_), ground_truth);
    util::write_file_atomic(SharedClusterState::metrics_path(dir_), metrics_text);
    // Without a journal a manifest is kept in step, never created.
    if (moved && (journal_ != nullptr || manifest_on_disk_))
        write_manifest({seq, crc, entries_.size(), truth_digest(entries_.size(), ground_truth)});
    if (obs_.obs != nullptr) {
        obs_.flush_total->inc();
        obs_.flush_seconds->observe(obs_.obs->tracer().now_s() - start_s);
        obs_.points->set(static_cast<double>(metrics.total_points()));
    }
    return ground_truth.size() + metrics_text.size();
}

}  // namespace pipetune::sched
