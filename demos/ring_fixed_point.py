"""Ring arithmetic and fixed-point encoding at a glance.

Run: python3 demos/ring_fixed_point.py
"""

import numpy as np

from tnmpcqep.ring import FixedPointCodec, as_ring_array, radd, rmul


def main():
    a, b = as_ring_array(3), as_ring_array(2**64 - 1)  # -1 in two's complement
    print(f"3 + (-1) in Z_2^64           : {int(radd(a, b))}")
    print(f"2^63 * 2 wraps to            : {int(rmul(as_ring_array(2**63), as_ring_array(2)))}")

    codec = FixedPointCodec(k=64, fraction_bits=20)
    print(f"\ncodec: k=64, F=20, ulp = 2^-20 = {codec.ulp}")
    for v in (1.5, -3.25, 1e-7, 87960930222.0 - 1.0):
        enc = int(codec.encode_array(v))
        dec = float(codec.decode_array(enc))
        print(f"  {v:>18.6g} -> raw {enc:>20d} -> {dec:>18.6g} "
              f"(err {abs(dec - v):.2e})")

    rng = np.random.default_rng(0)
    vals = rng.uniform(-1e4, 1e4, size=5000)
    errs = np.abs(codec.decode_array(codec.encode_array(vals)) - vals)
    print(f"\n5000 random encodes: worst roundtrip error {errs.max():.3e} "
          f"(bound is half an ulp, {codec.ulp / 2:.3e})")


if __name__ == "__main__":
    main()
