/**
 * @file
 * Public re-export: the kernel model. KernelSpec/KernelInfo metadata,
 * the Workload interface, the global Registry that static registration
 * (SWAN_REGISTER_KERNEL) fills before main(), and the workload
 * input-size Options. Consumers enumerate kernels here and feed them
 * to a swan::Experiment, or make a workload for Session::run; nothing
 * under src/ needs to be included directly.
 */

#ifndef SWAN_KERNELS_HH
#define SWAN_KERNELS_HH

#include "core/kernel.hh"
#include "core/options.hh"
#include "core/registry.hh"

#endif // SWAN_KERNELS_HH
