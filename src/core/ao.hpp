#pragma once

/// appleoranges — umbrella header.
///
/// Reproduction of "Apple vs. Oranges: Evaluating the Apple Silicon M-Series
/// SoCs for HPC Performance and Efficiency" (Hübner, Hu, Peng, Markidis;
/// IPPS 2025; arXiv:2502.05317) as a calibrated simulation on non-Apple
/// hardware. See docs/ARCHITECTURE.md for the paper-to-module mapping and
/// docs/benchmarks.md for the per-figure reproduction record.
///
/// Layering (each header can also be included individually):
///   util        — buffers, statistics, tables, charts, thread pool
///   soc         — chip specs (Table 1), devices (Table 3), clock, thermal,
///                 calibration anchors, the analytic performance model
///   mem         — unified memory, storage modes, memory controller
///   metal       — Metal-like compute API (device/queue/buffer/pipeline)
///   shaders     — the MSL kernels (STREAM + GEMM) in simulator form
///   mps         — Metal Performance Shaders GEMM
///   amx         — Apple AMX coprocessor emulator
///   accelerate  — CBLAS on AMX, and the reference BLAS
///   ane         — Neural Engine + Core ML dispatch model
///   power       — powermetrics substrate
///   harness     — matrix workloads, experiments, reporting
///   stream      — CPU and GPU STREAM benchmarks
///   gemm        — the six Table-2 implementations
///   baseline    — GH200 / literature HPC reference points
///   core        — System: one fully wired simulated machine

#include "accelerate/cblas.hpp"
#include "accelerate/reference_blas.hpp"
#include "amx/amx_gemm.hpp"
#include "amx/amx_unit.hpp"
#include "amx/float16.hpp"
#include "ane/neural_engine.hpp"
#include "baseline/reference_systems.hpp"
#include "core/system.hpp"
#include "gemm/gemm_interface.hpp"
#include "harness/matrix_workload.hpp"
#include "mem/memory_controller.hpp"
#include "mem/storage_mode.hpp"
#include "mem/unified_memory.hpp"
#include "metal/compute_command_encoder.hpp"
#include "metal/device.hpp"
#include "mps/mps_gemm.hpp"
#include "mps/mps_matrix.hpp"
#include "power/power_model.hpp"
#include "power/powermetrics.hpp"
#include "shaders/default_library.hpp"
#include "shaders/gemm_shaders.hpp"
#include "shaders/stream_kernels.hpp"
#include "soc/benchmark_taxonomy.hpp"
#include "soc/calibration.hpp"
#include "soc/chip_spec.hpp"
#include "soc/device_info.hpp"
#include "soc/perf_model.hpp"
#include "soc/soc.hpp"
#include "stream/cpu_stream.hpp"
#include "stream/gpu_stream.hpp"
#include "util/aligned_buffer.hpp"
#include "util/ascii_chart.hpp"
#include "util/csv_writer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/statistics.hpp"
#include "util/table_printer.hpp"
#include "util/units.hpp"
