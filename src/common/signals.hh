/**
 * @file
 * Cooperative SIGINT/SIGTERM drain support for long-running sweeps.
 *
 * A drained process stops *dispatching* new work but finishes what is
 * already in flight, writes its results/journal and exits resumably —
 * the opposite of the default disposition, which throws away every
 * simulated cycle since the last completed job.
 *
 * The handler only sets an atomic flag (async-signal-safe); consumers
 * poll drainFlag(). A second SIGINT/SIGTERM hard-exits with the
 * conventional 128+signo status, so an impatient Ctrl-C Ctrl-C still
 * kills a wedged process.
 */

#ifndef DGSIM_COMMON_SIGNALS_HH
#define DGSIM_COMMON_SIGNALS_HH

#include <atomic>

namespace dgsim
{

/**
 * Install the SIGINT/SIGTERM drain handlers (idempotent). Call once,
 * from the main thread, before starting a sweep.
 */
void installDrainHandler();

/** The flag the handlers set; poll (or pass to RunnerOptions::cancel). */
const std::atomic<bool> &drainFlag();

/** True once a drain has been requested (signal or requestDrain()). */
bool drainRequested();

/** Programmatic drain request — what the tests use instead of signals. */
void requestDrain();

/** Reset the flag (tests only; real processes drain once and exit). */
void resetDrainFlagForTest();

} // namespace dgsim

#endif // DGSIM_COMMON_SIGNALS_HH
