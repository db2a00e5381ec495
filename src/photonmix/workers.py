"""Child processes that each run one call while their caller goes on.

A child is forked where the platform can fork, so it starts with the
caller's imports and memory instead of a new interpreter and its arguments
are not copied; elsewhere the platform's default start method runs the same
code, with the function and its arguments pickled.  ``multiprocessing`` is
imported only when a child starts, so a run that starts none does not pay
for the import.
"""

from __future__ import annotations

from contextlib import contextmanager

from .errors import PhotonmixError


def _call(conn, fn, args) -> None:
    """Body of the child ``in_child`` starts: send ``fn(*args)``, or the exception it raised."""
    try:
        outcome = (True, fn(*args))
    except Exception as exc:
        outcome = (False, exc)
    conn.send(outcome)


@contextmanager
def in_child(what: str, fn, *args):
    """Run ``fn(*args)`` in a child process while the block runs.

    Yields a function that waits for the child's return value and returns
    it, or raises the child's exception again, with its class, message and
    attributes.  A child that dies without a result (killed, out of memory)
    is a ``PhotonmixError``: "the process <what> exited with status <s>
    without a result".  On every way out of the block the child is killed
    and joined, so none outlives it.
    """
    import multiprocessing  # here, so that no run without a child pays for the import

    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else methods[0])
    receiver, sender = context.Pipe(duplex=False)
    worker = context.Process(target=_call, args=(sender, fn, args))
    with receiver:
        with sender:  # the child then holds the only sending end, so EOF means it died
            worker.start()

        def result():
            try:
                ok, value = receiver.recv()
            except EOFError:
                worker.join()
                raise PhotonmixError(
                    f"the process {what} exited with status {worker.exitcode} without a result"
                ) from None
            if not ok:
                raise value
            return value

        try:
            yield result
        finally:
            worker.kill()
            worker.join()
            worker.close()
