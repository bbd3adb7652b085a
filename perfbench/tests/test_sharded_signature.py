#!/usr/bin/env python3
"""Sharded stepping must reproduce serial stepping bit for bit.

Runs sat32_sharded's network (32x32, footprint, uniform 0.15) on a
shortened run under step_mode=sharded with min(4, nproc) threads and
under serial activity stepping at the same seed, and requires equal
model signatures. Builds the program first, like perfbench/run.py.

    python3 perfbench/tests/test_sharded_signature.py
"""

import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


class ShardedSignature(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def check_seed(self, seed):
        r = subprocess.run([self.binary, "--selftest", "sharded-signature",
                            "--seed", str(seed)],
                           capture_output=True, text=True)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_benchmark_seed(self):
        self.check_seed(1)

    def test_held_out_seed(self):
        self.check_seed(9001)


if __name__ == "__main__":
    unittest.main()
