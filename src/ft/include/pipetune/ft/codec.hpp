#pragma once
// JSON codecs for the workload types the fault-tolerance layer persists
// (journal payloads, trial checkpoints). Kept in one place so the journal
// writer, the recovery reader and the checkpoint store cannot drift apart on
// field names.

#include "pipetune/util/json.hpp"
#include "pipetune/workload/types.hpp"

namespace pipetune::ft {

/// Every field of a workload definition (a job on a perturbed, unseen
/// workload is not in the catalogue, so resume must rebuild it).
util::Json workload_to_json(const workload::Workload& workload);
workload::Workload workload_from_json(const util::Json& json);

util::Json system_to_json(const workload::SystemParams& system);
workload::SystemParams system_from_json(const util::Json& json);

/// Full EpochResult round-trip, counters included — checkpointed epochs must
/// replay bit-identically (doubles serialize with %.17g, see util/json.cpp).
util::Json epoch_result_to_json(const workload::EpochResult& result);
workload::EpochResult epoch_result_from_json(const util::Json& json);

}  // namespace pipetune::ft
