"""Three-party protocol walkthrough: sharing, a straight-line program, and
the communication meter.

Run: python3 demos/mpc_protocol.py
"""

from tnmpcqep.mpc import Instr, Mpc3Session, eval_plaintext, run_protocol


def main():
    s = Mpc3Session(k=64, fraction_bits=20, theta=5, seed=0)
    x = s.share_encoded(3.25)
    y = s.share_encoded(-1.5)
    z = s.fixed_mul(x, y)
    print(f"3.25 * -1.5 opened from shares: {s.open_decoded(z)[0]:+.6f}")
    q = s.divide(s.share_encoded(7.0), s.share_encoded(4.0))
    print(f"7 / 4 via Goldschmidt         : {s.open_decoded(q)[0]:+.6f}")
    m = s.report()
    print(f"meter so far: client->node {m.client_to_node_bits} bits, "
          f"node<->node {m.node_to_node_bits}, reconstruction {m.reconstruction_bits}")

    # the same computation as a program, against the plaintext oracle
    prog = [
        Instr("fixed_mul", "p", "a", "b"),
        Instr("add", "s", "p", "c"),
        Instr("div", "q", "s", "d"),
    ]
    inputs = {"a": 3.25, "b": -1.5, "c": 10.0, "d": 2.0}
    got, report = run_protocol(prog, inputs, fraction_bits=20, theta=5,
                               seed=1, outputs=["q"])
    want = eval_plaintext(prog, inputs, fraction_bits=20, outputs=["q"])
    print(f"\nprogram (a*b + c) / d: protocol {got['q']:+.8f}, "
          f"plaintext {want['q']:+.8f}, |diff| {abs(got['q'] - want['q']):.2e}")
    print(f"program cost: {report.total_bits} bits total")

    active = run_protocol(prog, inputs, fraction_bits=20, theta=5, seed=1,
                          outputs=["q"], mode="active")[1]
    print(f"active-security cost is exactly double: {active.total_bits} bits")


if __name__ == "__main__":
    main()
