"""Start-up: ``import minfer`` loads numpy with OpenBLAS's shortest idle spin
and leaves the environment as it found it. Each case runs in a fresh
interpreter, because OpenBLAS reads its variables once, when numpy loads it.
"""

import os
import subprocess
import sys

import pytest

VAR = "OPENBLAS_THREAD_TIMEOUT"

# fails the child if anything assigns to os.environ after this point
SPY = ("import os\n"
       "class Spy(dict):\n"
       "    def __setitem__(self, key, value):\n"
       "        raise AssertionError(f'os.environ[{key!r}] set')\n"
       "os.environ = Spy(os.environ)\n")


def run(code: str, **env: str) -> str:
    child_env = {k: v for k, v in os.environ.items() if k != VAR}
    child_env.update(env)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="reads per-thread CPU from /proc; needs an idle BLAS worker")
def test_blas_worker_stays_idle_after_import():
    # without the short timeout the idle OpenBLAS worker spins ~60-70 ms
    # of CPU after numpy loads, even though minfer never hands it work
    code = ("import os, time\n"
            "import minfer\n"
            "time.sleep(0.3)\n"
            "ticks = 0\n"
            "for task in os.listdir('/proc/self/task'):\n"
            "    if int(task) != os.getpid():\n"
            "        with open(f'/proc/self/task/{task}/stat') as f:\n"
            "            stat = f.read().rsplit(')', 1)[1].split()\n"
            "        ticks += int(stat[11]) + int(stat[12])\n"
            "print(ticks / os.sysconf('SC_CLK_TCK'))\n")
    assert float(run(code)) <= 0.010


def test_environment_left_as_found():
    code = ("import os, subprocess, sys\n"
            "before = dict(os.environ)\n"
            "import minfer\n"
            "assert 'numpy' in sys.modules\n"
            "assert dict(os.environ) == before\n"
            f'child = "import os; print(os.environ.get({VAR!r}))"\n'
            "print(subprocess.run([sys.executable, '-c', child], capture_output=True,\n"
            "                     text=True, check=True).stdout, end='')\n")
    assert run(code) == "None\n"


def test_caller_setting_untouched():
    code = SPY + f"import minfer\nprint(os.environ[{VAR!r}])\n"
    assert run(code, **{VAR: "7"}) == "7\n"


def test_inert_when_numpy_already_loaded():
    assert run("import numpy\n" + SPY + "import minfer\nprint('ok')\n") == "ok\n"
