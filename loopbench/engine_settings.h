// Engine settings that loopbench_server and the in-process engine stage
// of loopbench_driver share, so that both run the engine alike.
#pragma once

#include <cstddef>

namespace loopbench {

// Rows the engine coalesces before routing (EngineOptions::batch_size).
// Larger than every round, so a round reaches the shards as one
// multi-row item per shard at its Flush barrier. That also keeps the
// server's delta framing (and so bytes_out) independent of thread
// timing: no shard emits a delta while an IngestBatch is still being
// acknowledged.
inline constexpr std::size_t kEngineBatchRows = 1024;

}  // namespace loopbench
