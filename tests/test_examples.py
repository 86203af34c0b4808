import hashlib

import pytest

from courant_vpa.examples import example, example_names
from courant_vpa.fileformat import courant_to_file, print_file

# sha256 of print_file(courant_to_file(example(name))), no META line: every
# supported built-in, including trivial(4..6), which example_names() omits.
PRINTED_SHA256 = {
    "trivial(1)": "454f388e8b4aa51b6732278c3051a241c212041193deb0d2ef39884af0dc3265",
    "trivial(2)": "f6af8a1f56b6f0990797e98e3af5de6030ddc01eb1c36c5f0c0b542301030c81",
    "trivial(3)": "c2269e34f4a890e5132873079b96000b074fd267f6f08fc257b32fadc90e9222",
    "trivial(4)": "0691b48860e8180f928bef0b2e4f7e72a86409345a7c01e0f1b127cda0a11ece",
    "trivial(5)": "de74b8c500e2ce5e23f100c01efa93b5e309375a0d4ebde811cb8c1f397ed975",
    "trivial(6)": "a08b533ffa58f089bf78e911a2e2e6b5cef6b3706df2d3304f4a256b0fb395b3",
    "heisenberg": "de313bb4d95c2bcf68c5c86b0a8179072f7973ce8a639d8969cf7eb55ed777f4",
    "quadratic_lie(sl2)": "9b9f023835f4f6e8c507b68c7dc06880d1b657df821e91656d202d860f961569",
    "exact(2)": "24ab8abc981590f446affa8d2b9a45a9b1f830a78816a263173a9f7b2e205e06",
    "exact(3)": "92d6ad2bd6953618cb6823891d178022cb12c94c4bdf9f685c7934ec1a2e724a",
    "exact(4)": "ddb9eff1d2c7ea22611625331d128c9ee3ae2bd77575551ca046f898d806fb51",
}


def test_registry_names_all_build():
    for name in example_names():
        example(name)


def test_printed_examples_are_pinned():
    assert set(example_names()) <= set(PRINTED_SHA256)
    for name, digest in PRINTED_SHA256.items():
        text = print_file(courant_to_file(example(name)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_unknown_names_rejected():
    for bad in ("exact(7)", "nonsense", "quadratic_lie(su3)", "trivial(99)"):
        with pytest.raises(KeyError):
            example(bad)
    # a size that is not ASCII decimal is an unknown name, not a ValueError;
    # only the spelling example_names() prints is known
    for bad in ("trivial(x)", "exact(٣)", "trivial(01)", "exact(02)", " heisenberg "):
        with pytest.raises(KeyError) as err:
            example(bad)
        assert err.value.args[0] == "unknown example %r" % bad


def test_exact2_tables_match_hand_computation():
    # Kahler-differential oracle for A = Q[x]/(x^2), worked by hand:
    # Der(A) = span{x d/dx}, Omega1 = span{dx} with x.dx = 0,
    # <x d/dx, dx> = x, d(x) = dx, [x d/dx, dx] = dx.
    X = example("exact(2)")
    A, B = X.A.space, X.B
    assert A.basis == ("e", "x")
    assert B.basis == ("xD", "dx")
    x = A.unit_vector("x")
    xD = B.unit_vector("xD")
    dx = B.unit_vector("dx")
    assert X.act(x, dx).is_zero()                      # x . dx = 0
    assert X.act(x, xD).is_zero()                      # x . (x d/dx) = x^2 d/dx = 0
    assert X.pair(xD, dx) == x                         # <x d/dx, dx> = x
    assert X.pair(xD, xD).is_zero()
    assert X.pair(dx, dx).is_zero()
    assert X.d(x) == dx                                # da = a' dx
    assert X.d(A.unit_vector("e")).is_zero()
    assert X.anc(xD, x) == x                           # (x d/dx)(x) = x
    assert X.anc(xD, A.unit_vector("e")).is_zero()
    assert X.brk(xD, xD).is_zero()
    assert X.brk(xD, dx) == dx                         # L_X dx = d(i_X dx) = dx
    assert X.brk(dx, xD).is_zero()
    assert X.brk(dx, dx).is_zero()


def test_exact3_dimensions_and_relations():
    X = example("exact(3)")
    assert X.A.space.dim == 3
    assert X.B.dim == 4
    A, B = X.A.space, X.B
    x = A.unit_vector("x")
    x2dx = B.unit_vector("xdx")
    # x . (x dx) = x^2 dx = 0 because x^2 dx spans the killed top form
    assert X.act(x, x2dx).is_zero()
    # d(x^2) = 2x dx
    assert X.d(A.unit_vector("x2")) == B.vector({"xdx": 2})


def test_heisenberg_pairing():
    X = example("heisenberg")
    beta = X.B.unit_vector("beta")
    assert X.pair(beta, beta) == X.A.unit
    assert X.brk(beta, beta).is_zero()
    assert X.anc(beta, X.A.unit).is_zero()


def test_exact3_frozen_spot_values():
    # hand computation in Q[x]/(x^3): [x d/dx, x^2 d/dx] = x^2 d/dx,
    # <x d/dx, x dx> = x^2, L_{x d/dx}(dx) = dx
    X = example("exact(3)")
    B = X.B
    xD = B.unit_vector("xD")
    x2D = B.unit_vector("x2D")
    dx = B.unit_vector("dx")
    xdx = B.unit_vector("xdx")
    assert X.brk(xD, x2D) == x2D
    assert X.brk(x2D, xD) == -x2D
    assert X.pair(xD, xdx) == X.A.space.unit_vector("x2")
    assert X.brk(xD, dx) == dx
    assert X.anc(x2D, X.A.space.unit_vector("x")) == X.A.space.unit_vector("x2")
