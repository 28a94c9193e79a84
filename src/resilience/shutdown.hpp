// Graceful-shutdown flag shared by the signal handlers and the sweep
// scheduler.
//
// Signal flow: install_signal_handlers() routes SIGINT/SIGTERM to a handler
// that only sets a std::sig_atomic_t flag (the one async-signal-safe action
// we need) and then re-arms the signal to its default disposition, so a
// *second* Ctrl-C force-kills a process that is stuck draining. The sweep
// scheduler polls shutdown_requested() at every task boundary: queued tasks
// drain without executing, in-flight simulations finish (and land in the
// memo directory), telemetry is flushed, and the caller exits with
// kExitInterrupted.
//
// request_shutdown()/clear_shutdown() expose the same flag to tests and to
// embedding code that wants cooperative cancellation without signals.
#pragma once

namespace esteem::resilience {

/// Process exit code for a sweep that was interrupted and drained cleanly
/// (0 = ok, 3 = run errors — see tools/esteem_cli.cpp).
inline constexpr int kExitInterrupted = 5;

/// Installs SIGINT/SIGTERM handlers that set the shutdown flag. Idempotent.
void install_signal_handlers();

/// True once a signal arrived or request_shutdown() was called.
bool shutdown_requested() noexcept;

/// Sets the flag as if a signal had arrived (tests, embedders).
void request_shutdown() noexcept;

/// Clears the flag (tests; a resumed run starts fresh).
void clear_shutdown() noexcept;

}  // namespace esteem::resilience
