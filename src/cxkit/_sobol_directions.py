"""Sobol direction numbers for dimensions 0..254 (Joe and Kuo 2008).

The first 255 rows of the table ``scipy.stats.qmc.Sobol`` draws from (a ring
has at most 255 variables).  The bits of ``POLY[d]`` are the coefficients of
dimension d's primitive polynomial, leading one first, of degree
m = ``POLY[d].bit_length() - 1``; ``VINIT[d]`` holds its m initial direction
numbers, the k-th odd and below 2^k.  Both are decoded at import from base64
bit fields: ``POLY[d]`` in 12 bits, the k-th number v in k - 1 bits as v // 2.
``tests/test_sphere.py`` checks them against scipy's copy; this writes them::

    with np.load(path) as t:  # scipy/stats/_sobol_direction_numbers.npz
        poly = [int(p) for p in t["poly"][:255]]
        vinit = [t["vinit"][d, :p.bit_length() - 1] for d, p in enumerate(poly)]
    def pack(fields):  # (value, width) pairs -> base64 text of their bits
        bits = "".join(format(v, f"0{w}b") for v, w in fields if w)
        return b64encode(int(bits, 2).to_bytes((len(bits) + 7) // 8, "big")).decode()
    _POLY = pack((p, 12) for p in poly)
    _VINIT = pack((int(v) // 2, k) for row in vinit for k, v in enumerate(row))
"""

from binascii import a2b_base64

_POLY = "AAEAMAcAsA0BMBkCUCkC8DcDsD0EMFsGEGcG0HMIMIkI8JEJ0KcKsLkL8MEMsNMNUOUO8PEPcP0R0SsS0U0V8WMWUWkXEYcY0akcMc8ecfUhEhsiEi0jMlkl8mkm8ncn0ocpUqMqUq8rcr0s8tEtsvUvkxMxUx8yMzEzs081s2E2s203M384U487U7k8c8s809U9k+M+k/tAlBtCdC1GVG9IFItMVNdOdPNP9Q1RlSNTFT1UNVdWtYVY9ZdaFcdeVfdfthNhViVjdkNk9ltnln9olrVsFtNt9v1xdx1yFzl0d011V1l2N31415N7F9t/N/mAWBeCuC2EeGOGWHGHuI2JWJ+KmLGM+NGOGOeOuPWQ2ROSWSmTuT2UWUmVGVuXOXWX+YOY+aua2bmcedmeWfegGgehOhWimkmmGm2nmn+oWpGp2qequrOrWtWt+umu+vGvuwOwmxGzOz+0G0u1m1+2W2+324e4u5O5W6+7e728m9u92+e+3AvA3BnB/Fc="
_VINIT = "AYCdkoSJ2UABXL7DwPSptwOYp2YlPvbPn8x4jji/oDGpkjrFvj1Zo9iJongSB0yXTMcptYG+W6RCWokrgM2HvXG8xUO0J/Mx63/r7CVSzfJdrGEfotBbnHwJ4JKDmUlR070IWXKXJOj9efY0hX4cAbq5Y7hCSOLf+6ilq1Cy5C9bvtEGwQiCiZYKriw57P5FVD7RbVR2HO1XmygO/79NMRuBs++8pW87YxQOy6auAFrX3ySdUbiehSg1AFBescH3twSoMoFO8w3/zoL9i0/JBPr92Tt6XmQVjXVv1CAw2isPDnIMQlOtGdXgdr/8Yx32lWYRALnxKKLg4ZPFMukZwq3vjKH0XDJ05Yu3yPRKsWjYlfMsLzi5Qx43gnmaawHACEki9nepwbxZltUHXpKJeGurRqZ2UMVA3hO/ziF5qYTcilsulpbh8xuoP7vSUSzpsr6SD1JnISXFvcrRTf/obzjQdfxslZyXD4Wp7+kwiEEuGU9DKT9SR/45VnxTjTBL/BUjpGAnP4nAvjbqQ/VD1Ltl09yeJYC4Rbdz6/QdUmEjONTA2++RwTVRP8+rW0T4bkM7hsIdG0Wa3iUjKztOI3bWtCIFy4vkMZLjpsXua3ZOqVSplU5KL7yQ8c40BZxeslPZYOm0MmrKn56Cs3cL6QoH4OWZWc9TBnBvLuYkkB3QrcQM1T+07dpZj/KwYwXywyaj4kSbj8PaLBe/uL6DxItwF8YBZ+bEZNsvjNLP3ETNObIS1ABGxEBbvZze4xoNVrwsSpR91la+TV3+hPYZwP85vBPXnbz6LCokk5l1xA708f0KZIPkl0vYJt+WUmEBm2KLZs98dhr4lX5Sf6/V1U2elsfq2T2sZGAEusqaTXptkfO+uCrlT9FRPPeei/mXbQZhHY5lnv3HD04EJ1eiuuodvEY1zRtyWTUuSyoMh5MWsyAPQ617sTa9EBN2sbNHN0I64u2EGd5TwjdL3BbFitmeAIDsY5DsDXnCwrQcc5W9tdfjgv6Lvf3gYm2DRF4EOCM4oh6NsXMx7sOOMNbNnVhNijcIltPve6x1qebpXa13h7F1m0uFGNtfkJqQC2q7uErHyTpfyt2ACG9auD8C5CbobgaUT7mRM3FPY6LZBPtp9+MBFcbtMXMWWWrDoyKYXKMtGaxtQApnd5Ionf7j3BhCncYDq5V41/qd+/oIpGPeCWNn4gu5diN48V/vkJYhgexlYyVJZL88ypRBcif9s2SyKgax/y2rLuDDs4eYVNBS+MTWloZclR0uLBQYBSNsNEp+E2bW4rMXXdUbSh/ALPiKpK1KfURkGKFFsUFV5CHHFUJlGdYk91nbIqnM/lMs+b3bG8sFV8ozRYzvpWpZgh1HnC7DDZFgYXi8u6Co3oDEFzWoMr6Zy1GxuCRt4oqbBGh7HpreQGA8/jSesZHaq1bQEaNIhJA5fbFe5KPX6mIxdqbW0nhV/spIRakjeTR2w0W799YYnsl7NYaYXlXne6otd++j9rQSCfwy0xed/AgLfvyvic+Zpic+3JYXV/Ob8SlN83oQrVxJE6sZ+/W0TLAWSrbBdIZdS6RNAJD4yb9TdmGDIc2Xf0x/VnfEZ+nVvn832V7hUpT9go876t1MppkpEPUGQiKCAECqRC0ZMQVvXkX+zEqk+mJjaAspQGFKb2fPHbXHXP440kEiiLwyT+skF5SJDXlPApXNOz+Z7kDy7/7jQ1LB8ZgJVzZpN3/uZ4NDMlwQ89oWT0onUhIR2PgTTOp6n4JGdU2Ku9c="


def _fields(text: str, widths: list[int]) -> list[int]:
    """The unsigned bit fields of ``widths``, first bits first, of base64 ``text``."""
    bits, end, out = int.from_bytes(a2b_base64(text), "big"), sum(widths), []
    for w in widths:
        end -= w
        out.append(bits >> end & ((1 << w) - 1))
    return out


POLY = tuple(_fields(_POLY, [12] * 255))
_halves = iter(_fields(_VINIT, [k for p in POLY for k in range(p.bit_length() - 1)]))
VINIT = tuple(tuple(2 * next(_halves) + 1 for _ in range(p.bit_length() - 1)) for p in POLY)
