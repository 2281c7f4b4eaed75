"""The hang guard (conftest's `arm_hang_guard`) ends the pool workers of the
run it exits, so that a hung grid leaves no process behind."""
import os
import signal
import subprocess
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))

# a two-worker pool whose tasks sleep far past the guard's limit
HUNG_POOL = """
import multiprocessing, sys, time
from concurrent.futures import ProcessPoolExecutor
sys.path.insert(0, sys.argv[1])
import conftest
with ProcessPoolExecutor(max_workers=2) as pool:
    futures = [pool.submit(time.sleep, 600) for _ in range(2)]
    while len(multiprocessing.active_children()) < 2:
        time.sleep(0.05)
    print(*(worker.pid for worker in multiprocessing.active_children()), flush=True)
    conftest.arm_hang_guard(1.0)
    futures[0].result()
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_the_guard_ends_a_hung_pool_and_exits_with_every_traceback():
    src = os.path.join(TESTS, os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    # a session of its own, so that the workers can be ended if the guard fails
    proc = subprocess.Popen([sys.executable, "-c", HUNG_POOL, TESTS], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=30)
        pids = [int(pid) for pid in out.split()]
        assert len(pids) == 2
        assert proc.returncode == 1
        # every thread's traceback: the main thread waits on the pool's result
        assert "Thread 0x" in err and "in result" in err
        assert not any(_alive(pid) for pid in pids)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
