"""Every end-to-end golden value of the test suite, in one table.

A golden value records the exact bits one run gave.  Walks call numpy's
float64 exp, log, log1p and tan and scipy's betainc and gammaln, whose last
bits depend on the SIMD loops numpy dispatches and on the numpy and scipy
versions; an ulp there moves a walk's value and can flip an exit.  So a pin
is either one value, which holds on every numerics seen so far, or a dict
{fingerprint: value}, one value per numerics.  FINGERPRINT names the
numerics of this process: a short sha256 of those six functions on a fixed,
contiguous probe (numpy picks its loops by stride too).

`pin(name, got)` compares exact bits: floats by their hex form, so 0.0 and
-0.0 differ, and no tolerance anywhere.  Under a fingerprint the table does
not know, a per-numerics pin fails and prints `got`, the value to add under
that fingerprint once the run is trusted.
"""
import hashlib

import numpy as np
from scipy import special


def sha256(data):
    """Hex sha256 of bytes, or of an array's C-order bytes."""
    if not isinstance(data, bytes):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


def _fingerprint():
    u = (np.arange(4096) + 0.5) / 4096
    return sha256(b"".join(y.tobytes() for y in (
        np.exp(40.0 * u - 20.0), np.log(u), np.log1p(-u), np.tan(3.0 * u - 1.5),
        special.betainc(0.75, 1.25, u), special.gammaln(8.0 * u))))[:12]


FINGERPRINT = _fingerprint()

# numpy 2.4 / scipy 1.17 on x86-64: the AVX-512 loops, and the AVX2 loops
# that NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" leaves
AVX512, AVX2 = "59920a97f8be", "72e7828721dc"

PINS = {
    # tests/test_field.py::TestGoldenBits: (sha256 of the values, steps)
    "walk_starts_ball[0.05]": {
        AVX512: ("31d845f098d7dac6d06793f76f7e23e1b8b512ccf820ee37b72dd78a639a297b", 1365),
        AVX2: ("a527db905307a090367fc8efd782eaa823f44f0e354ff1865c6ff97d05c2ad70", 1365)},
    "walk_starts_ball[1.0]": {
        AVX512: ("8ee279eafd9e20ce0041c098f4779a65ecbf1df95f0a4f3277782d40b0bd5a3c", 3360),
        AVX2: ("88fc1c1c9acbf2cf896fc45333dbe97546b4aa972ebca2311b130456e125627d", 3360)},
    "walk_starts_ball[1.95]": {
        AVX512: ("98c29636f58bd6f5b3f2aecbeef35fbd8d1311ad9eecf2fd70b8bfd985be6c06", 43617),
        AVX2: ("03da56c12279b1b7540628d2c055207b6f8620b7f95fd917fe555ce4b980d967", 43623)},
    "walk_starts_pentagon[0.05]": {
        AVX512: ("64ad2f7c9e512dc770446fa51de05e097f88c00503b69e7fd246d1da083c0ee4", 1389),
        AVX2: ("43f88afb54c12f711ac4c63253b47ea479142f6456fc5dfd5a3f727ee3d3bdbf", 1389)},
    "walk_starts_pentagon[1.0]": {
        AVX512: ("b2574f974224b5a1b9f1cec1047abe595910d3a45fb1a8df70cf51a1bb21b85b", 3930),
        AVX2: ("51d29cd83eea7e82271821ccf052cf48b1ce30a7b4402f0f7f1cc7fc57ebdd44", 3930)},
    "walk_starts_pentagon[1.95]": {
        AVX512: ("7040e119d7fc2157fd005d8651b305def70994d5b6edb568f55b128a9992072f", 46619),
        AVX2: ("268f17fe491ffe8c8fd5bbf2066ebfeabad90824d3d8b50fff183257d0109672", 46624)},
    "mlmc_solution": {
        AVX512: ("0d73496ba4578e5ef94f2ee84769f8d1a897017678d0c9fa95cc1d86838700ff", 58414),
        AVX2: ("13ad1c2d18b8b10e9fd614471ca31567ca6b4602fcc45c377a6bfa335454a041", 58414)},
    # tests/test_eigen.py: (lambda, total cost); the (k, lambda, cost) rows
    # and the walk-loop iterations
    "eig_golden": {AVX512: (2.0043839150909717, 33856),
                   AVX2: (2.0043839150909726, 33856)},
    "eig_benchmark_size": {
        AVX512: ([(1, 2.4072812659764855, 207868), (2, 2.048596749871089, 185704),
                  (3, 2.0362184879386014, 48480), (4, 2.037940679917179, 44231),
                  (5, 2.0375435165787814, 33025)], 202),
        AVX2: ([(1, 2.4072812659764855, 207868), (2, 2.0485967498710895, 185704),
                (3, 2.0362184879386023, 48480), (4, 2.0379406799171766, 44231),
                (5, 2.037543516578781, 33025)], 202)},
    # tests/test_sampling.py::TestPointEstimate: (mean, variance, steps)
    "point_example2": (0.6493589484794204, 0.2250067370894258, 97179),
    "point_example1": (0.5526893375971521, 0.11334907251728717, 97179),
    # tests/test_mlmc.py::TestCostComparison: (L, mlmc_cost, vanilla_cost,
    # M, executed_cost) per row; (L, mlmc_cost, vanilla_cost) per row; the
    # pilot's steps
    "cost_rows_at_l0": [(3, 2780.9375, 2780.9375, [55], 2925),
                        (3, 10972.0625, 10972.0625, [217], 11658)],
    "cost_rows_above_l0": [(4, 8271727.875, 13931875.3125),
                           (5, 347280304.5, 1307275510.75)],
    "cost_pilot_steps": 809,
    # tests/test_cli.py: the study.csv row of check-assumptions
    "check_assumptions[I1]":
        "0.5,1.0,10000.0,0.5327005714734427,0.00798931210153543",
    "check_assumptions[I2]": {
        AVX512: "0.5,1.0,,0.6966776943955063,0.005512930764754372",
        AVX2: "0.5,1.0,,0.6966776943955063,0.005512930764754374"},
    # tests/test_cli.py::TestCliRuns::test_pinned_run: the output fields
    # that PINNED_RUNS reads
    "cli_eig": {
        AVX512: ["k,lambda,cost", "1,2.2915877430970983,8733",
                 "2,2.037710647907448,8839", "3,2.0284354127240345,2464"],
        AVX2: ["k,lambda,cost", "1,2.2915877430970983,8733",
               "2,2.037710647907448,8839", "3,2.028435412724035,2464"]},
    "cli_eig_box": {
        AVX512: ["k,lambda,cost", "1,4.077668080244538,3464",
                 "2,3.5660713108969158,3489", "3,3.557709943424005,2793"],
        AVX2: ["k,lambda,cost", "1,4.077668080244537,3464",
               "2,3.566071310896915,3489", "3,3.557709943424003,2793"]},
    "cli_solve": {
        AVX512: (["# samples = [4616, 2068, 689]", "# total_cost = 348697"],
                 "f053dd5988569914dcbfe0d3e6e904b189c0ed0a536fa6073a5b76452e5d134b"),
        AVX2: (["# samples = [4616, 2068, 689]", "# total_cost = 348697"],
               "7cd3e38ef65cc215f5a7389c4919108cc2f1f6b14bcec6ac9bda66846d45eaed")},
    "cli_solve6": {
        AVX512: (["# samples = [19610, 2878, 1041]", "# total_cost = 12832820"],
                 "6e404d28e882cbb3ccef595b1430fafa25c6fdb599c3ca09e74d3828b9b3b9e8"),
        AVX2: (["# samples = [19610, 2878, 1041]", "# total_cost = 12832820"],
               "8b01ec8bed905fd3fa467b49ee8eaf3979a510be64ac57d053b3183b5c28acdf")},
    "cli_custom": ["# samples = [1354, 365, 162]", "# total_cost = 73841"],
    "cli_variance_study": {
        AVX512: ["level,h,V,C,M", "2,1.0,0.11353319431168821,50.953125,64",
                 "3,0.5,0.06708275312936052,268.609375,64",
                 "4,0.25,0.03245939508907764,1093.609375,64",
                 "# slope = 0.9032030742118946"],
        AVX2: ["level,h,V,C,M", "2,1.0,0.1135331943116882,50.953125,64",
               "3,0.5,0.06708275312936052,268.609375,64",
               "4,0.25,0.03245939508907765,1093.609375,64",
               "# slope = 0.9032030742118946"]},
    "cli_check_assumptions_I1": [
        "alpha,mu_or_t,A,max_I,stderr",
        "0.5,1.0,10000.0,0.4562271107016518,0.003536426319596144"],
    "cli_check_assumptions_I2": [
        "alpha,mu_or_t,A,max_I,stderr",
        "0.5,1.0,,0.29600364798195117,0.003265728051554596"],
}


def _bits(value):
    """`value` with every float as its hex form and every numpy scalar or
    sequence as plain Python, so == compares exact bits."""
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_bits(v) for v in value]
    return value


def _plain(value):
    """`value` as plain Python, for a message whose repr can be pasted."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(v) for v in value)
    return value


def pin(name, got):
    """Fail unless `got` has the bits pinned as `name` on this numerics."""
    want = PINS[name]
    if isinstance(want, dict):
        assert FINGERPRINT in want, (
            f"pin {name!r} has no value for numerics {FINGERPRINT}; "
            f"got {_plain(got)!r}")
        want = want[FINGERPRINT]
    assert _bits(got) == _bits(want), (
        f"pin {name!r} on numerics {FINGERPRINT}: got {_plain(got)!r}")
