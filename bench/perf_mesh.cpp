// Perf — the multi-sensor mesh under load: sensor-field trial throughput
// as the field grows (4 / 16 / 64 sensors), with a thread-count replay
// check on every size.
//
//   $ ./perf_mesh --json | tail -n1 > BENCH_perf_mesh.json
//
// Like perf_engine/perf_hotpath this JSON intentionally contains wall
// times — do not use it in the CI determinism diff. Each size's timed run
// index is replayed (seek_run) on a one-thread and on a four-thread engine,
// and every MeshStats field must match bit-for-bit; `thread_replay_equal`
// records that check and IS deterministic, as are the trial/sensor
// counters.
// Each size builds a fresh field, primes its fresh frames (attack synthesis
// on the engine's workers) and then runs the trials, which find every
// frame cached; the two are timed apart.
// Reported fields:
//   * sensors              — field sizes swept;
//   * sensors_per_sec_by_m — per size, sensor-observations/s through
//     SensorField::prime plus mesh::run_mesh_trials on the bench's engine;
//   * sensors_per_sec      — min rate over the sweep (the trajectory
//     floor);
//   * prime_ms_per_frame_by_m / trial_us_per_sensor_by_m — per size, the
//     prime's wall time per fresh frame and the trials' per observation;
//   * prime_ms_per_frame   — median over the sizes (the same frames are
//     synthesized for every size);
//   * trial_us_per_sensor  — the trials' time per observation at the
//     sweep's middle size (16 sensors);
//   * thread_replay_equal  — 1 iff every size's one- and four-thread
//     replays matched the timed run bit-for-bit.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "mesh/sensor_field.h"
#include "zigbee/app.h"

using namespace ctc;

namespace {

using Clock = std::chrono::steady_clock;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every MeshStats field, doubles compared bitwise.
bool same_stats(const mesh::MeshStats& a, const mesh::MeshStats& b) {
  if (a.trials != b.trials || a.sensors_total != b.sensors_total ||
      a.sensors_usable != b.sensors_usable ||
      a.sensor_attacks != b.sensor_attacks ||
      a.majority_attacks != b.majority_attacks ||
      a.weighted_attacks != b.weighted_attacks ||
      a.bayesian_attacks != b.bayesian_attacks ||
      a.localization_converged != b.localization_converged ||
      !same_bits(a.de2_sum, b.de2_sum) ||
      a.position_errors.size() != b.position_errors.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.position_errors.size(); ++i) {
    if (!same_bits(a.position_errors[i], b.position_errors[i])) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options options = bench::parse_options(argc, argv);
  sim::TrialEngine engine = bench::make_engine(
      options, "Perf: sensor-field mesh (throughput, thread replay)");
  sim::TrialEngine one_thread({options.seed, 1});
  sim::TrialEngine four_threads({options.seed, 4});
  bench::JsonReport report(options, "perf_mesh");

  const auto frames = zigbee::make_text_workload(8);
  const std::size_t trials = options.trials_or(24);
  report.set("trials_per_point", static_cast<std::uint64_t>(trials));

  const std::vector<std::size_t> sweep = {4, 16, 64};
  std::vector<double> sizes, rates, prime_ms, trial_us;
  bool all_equal = true;
  double floor_rate = 0.0;

  sim::Table table({"sensors", "rate", "prime / frame", "trial / sensor",
                    "replay 1/4 threads"});
  for (const std::size_t sensors : sweep) {
    mesh::MeshConfig config;
    config.sensors = sensors;
    const mesh::SensorField field(config);
    const double observations = static_cast<double>(trials * sensors);

    const std::uint64_t run_index = engine.next_run_index();
    const auto start = Clock::now();
    field.prime(frames, engine);
    const auto primed = Clock::now();
    const mesh::MeshStats stats = run_mesh_trials(field, frames, trials, engine);
    const auto done = Clock::now();
    const double seconds = std::chrono::duration<double>(done - start).count();
    prime_ms.push_back(
        std::chrono::duration<double, std::milli>(primed - start).count() /
        static_cast<double>(frames.size()));
    trial_us.push_back(
        std::chrono::duration<double, std::micro>(done - primed).count() /
        observations);

    one_thread.seek_run(run_index);
    four_threads.seek_run(run_index);
    const bool equal =
        same_stats(stats, run_mesh_trials(field, frames, trials, one_thread)) &&
        same_stats(stats, run_mesh_trials(field, frames, trials, four_threads));
    all_equal = all_equal && equal;
    const double rate = observations / seconds;
    sizes.push_back(static_cast<double>(sensors));
    rates.push_back(rate);
    if (floor_rate == 0.0 || rate < floor_rate) floor_rate = rate;
    table.add_row({sim::Table::num(static_cast<double>(sensors), 0),
                   sim::Table::num(rate, 0) + " obs/s",
                   sim::Table::num(prime_ms.back(), 3) + " ms",
                   sim::Table::num(trial_us.back(), 2) + " us",
                   equal ? "bit-exact" : "MISMATCH"});
  }
  table.print();

  std::vector<double> sorted_prime = prime_ms;
  std::sort(sorted_prime.begin(), sorted_prime.end());
  report.set("sensors", sizes);
  report.set("sensors_per_sec_by_m", rates);
  report.set("sensors_per_sec", floor_rate);
  report.set("prime_ms_per_frame_by_m", prime_ms);
  report.set("trial_us_per_sensor_by_m", trial_us);
  report.set("prime_ms_per_frame", sorted_prime[sorted_prime.size() / 2]);
  report.set("trial_us_per_sensor", trial_us[1]);
  report.set("thread_replay_equal",
             static_cast<std::uint64_t>(all_equal ? 1 : 0));
  bench::finish(report, options);
  return all_equal ? 0 : 1;
}
