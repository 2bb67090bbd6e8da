import copy
import math
import pickle
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import finprob as fp
from finprob import serialize
from finprob.sampling import random_mp_kernel, random_vec_rv, rng_for

from .input_cases import MODE_LINES

R = fp.rational_mode()


class TestRoundtrips:
    def test_space_rational_bit_exact(self):
        space = fp.make_space([F(1, 3), F(0), F(2, 3)], R)
        text = serialize.dumps(space)
        again = serialize.loads(text)
        assert again.same_as(space)
        assert serialize.dumps(again) == text

    def test_space_float(self):
        space = fp.make_space([0.1, 0.2, 0.7])
        again = serialize.loads(serialize.dumps(space))
        assert again.same_as(space)

    def test_kernel_rational(self):
        u2 = fp.uniform_space(2, R)
        q = fp.make_space([F(3, 4), F(1, 4)], R)
        k = fp.Kernel([[1, 0], [F(1, 2), F(1, 2)]], u2, q)
        text = serialize.dumps(k)
        again = serialize.loads(text)
        assert fp.as_equal_kernels(again, k)
        assert serialize.dumps(again) == text

    def test_kernel_float_roundtrip_exact_doubles(self):
        rng = rng_for(100)
        k = random_mp_kernel(rng, 3, 4, fp.FLOAT_DEFAULT)
        again = serialize.loads(serialize.dumps(k))
        assert [list(r) for r in again.rows] == [list(r) for r in k.rows]

    def test_rv(self):
        space = fp.make_space([F(1, 2), F(1, 2)], R)
        f = fp.RandomVar([F(-3, 7), F(22, 7)], space)
        again = serialize.loads(serialize.dumps(f))
        assert list(again.values) == list(f.values)

    def test_vec_rv(self):
        space = fp.make_space([F(1, 2), F(1, 2)], R)
        g = fp.VecRandomVar([[1, F(1, 3)], [2, F(2, 3)]], space)
        again = serialize.loads(serialize.dumps(g))
        assert [list(r) for r in again.values] == [list(r) for r in g.values]

    @pytest.mark.parametrize("shape", [(1, 1), (5, 3), (64, 4)])
    def test_vec_rv_rational_roundtrip(self, shape):
        # integer, num/den and decimal tokens, values over mixed denominators
        n, d = shape
        rng = np.random.default_rng(102 + n)
        space = fp.uniform_space(n, R)
        rows = [[F(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) for _ in range(d)] for _ in range(n)]
        g = fp.VecRandomVar(rows, space)
        text = serialize.dumps(g)
        again = serialize.loads(text)
        assert again.dim == d and again.values.tolist() == rows
        assert serialize.dumps(again) == text
        spelled = text.replace("\nvec ", "\nvec 1/2 ").replace("vec 1/2 ", "vec 0.5 ", 1)
        wide = serialize.loads(spelled)
        assert wide.dim == d + 1 and wide.values[:, 0].tolist() == [F(1, 2)] * n

    def test_vec_rv_rational_huge_entries(self):
        text = "vecrv\nmode rational\nweights 1/2 1/2\nvec 99999999999999999999999/7 2\nvec 1/3 -4\n"
        g = serialize.loads(text)
        assert g.values.tolist() == [[F(99999999999999999999999, 7), 2], [F(1, 3), -4]]
        assert serialize.dumps(g) == text

    def test_vec_rv_float_roundtrip_exact_doubles(self):
        g = random_vec_rv(rng_for(101), fp.make_space([0.25, 0.5, 0.0, 0.25]), 3)
        text = serialize.dumps(g)
        again = serialize.loads(text)
        assert text.startswith("vecrv\nmode float") and serialize.dumps(again) == text
        assert again.values.tolist() == g.values.tolist()

    def test_file_roundtrip(self, tmp_path):
        space = fp.make_space([F(1, 4), F(3, 4)], R)
        path = tmp_path / "space.txt"
        serialize.dump(space, path)
        assert serialize.load(path).same_as(space)

    def test_mode_preserved(self):
        space = fp.make_space([0.5, 0.5], fp.float_mode(1e-6))
        again = serialize.loads(serialize.dumps(space))
        assert again.mode == space.mode


class TestNumberLines:
    """Every number line is read by `_parse_vector` into `Rationals`: float
    values over 1, or integer numerators over denominators."""

    @pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
    def test_documents_load_through_parse_vector(self, mode, monkeypatch):
        calls = []
        parse = serialize._parse_vector
        monkeypatch.setattr(serialize, "_parse_vector", lambda tokens, m: calls.append(tokens) or parse(tokens, m))
        space = fp.make_space([mode.one() / 4, 3 * mode.one() / 4, 0 * mode.one()], mode)
        objects = [
            space,
            fp.RandomVar([mode.one() / 2, -3 * mode.one(), 5 * mode.one()], space),
            random_vec_rv(rng_for(7), space, 2),
            fp.cond_exp_kernel(space, fp.Partition([(0, 1), (2,)], 3)).kernel,
        ]
        for obj, lines in zip(objects, (1, 2, 2, 3)):
            calls.clear()
            text = serialize.dumps(obj)
            again = serialize.loads(text)
            assert len(calls) == lines and serialize.dumps(again) == text
            weights = (again.domain if isinstance(again, fp.Kernel) else getattr(again, "space", again)).int_weights()
            assert weights[0].dtype == (np.int64 if mode.exact else np.float64)
            assert weights[1] == (4 if mode.exact else 1)

    def test_float_lines_are_floats_over_one(self):
        data = serialize._parse_vector(["0.1", "2", "-inf", "1e-300"], fp.FLOAT_DEFAULT)
        assert data.den == 1 and data.num.tolist() == [0.1, 2.0, -math.inf, 1e-300]
        g = serialize.loads("vecrv\nmode float 1e-09\nweights 0.5 0.5\nvec 0.1 2\nvec 3 -4.5\n")
        assert g.values is g.data.num and g.data.den == 1 and g.values.tolist() == [[0.1, 2.0], [3.0, -4.5]]


class TestErrors:
    def test_unknown_kind(self):
        with pytest.raises(fp.ConfigParseError):
            serialize.loads("matrix\nmode rational\n")

    def test_bad_number(self):
        with pytest.raises(fp.ConfigParseError):
            serialize.loads("space\nmode rational\nweights 1/0\n")

    @pytest.mark.parametrize(
        "body, error, message",
        [
            ("vec 1 2\nvec 1\nvec 1 2 3\n", fp.DimMismatchError, "vector value at outcome 1 has 1 components, expected 2"),
            ("vec 1 2\nvec 1\nvec 1 x\n", fp.ConfigParseError, "bad number 'x': Invalid literal for Fraction: 'x'"),
            ("vec 1 2/0\nvec 3 4\nvec 5 6\n", fp.ConfigParseError, "bad number '2/0': Fraction(2, 0)"),
            ("vec 1 2/-3\nvec 3 4\nvec 5 6\n", fp.ConfigParseError, "bad number '2/-3': Invalid literal for Fraction: '2/-3'"),
            ("vec\nvec\nvec\n", fp.DimMismatchError, "a vector random variable needs at least one component"),
            ("vec 1 2\n", fp.SizeMismatchError, "random variable has 1 values for a 3-outcome space"),
            ("", fp.SizeMismatchError, "random variable has 0 values for a 3-outcome space"),
        ],
        ids=["ragged", "bad-token-after-ragged", "zero-denominator", "signed-denominator", "no-components", "too-few-rows", "no-rows"],
    )
    def test_vec_rv_rational_errors(self, body, error, message):
        text = "vecrv\nmode rational\nweights 1/2 1/4 1/4\n" + body
        with pytest.raises(error) as info:
            serialize.loads(text)
        assert str(info.value) == message

    FLOAT_MESSAGE = "bad number 'x': could not convert string to float: 'x'"
    FRACTION_MESSAGE = "bad number '{}': Invalid literal for Fraction: '{}'"
    DOCUMENTS = {
        "weights": "space\nmode {}\nweights 0.5 {}\n",
        "values": "rv\nmode {}\nweights 0.5 0.5\nvalues 1 {}\n",
        "vec": "vecrv\nmode {}\nweights 0.5 0.5\nvec 1 2\nvec 3 {}\n",
        "domain": "kernel\nmode {}\ndomain 0.5 {}\ncodomain 1\nrow 1\nrow 1\n",
        "codomain": "kernel\nmode {}\ndomain 0.5 0.5\ncodomain 0.5 {}\nrow 0.5 0.5\nrow 0.5 0.5\n",
    }
    NAN = {
        "weights": "weight 1 is nan",
        "values": "random variable value at outcome 1 is nan",
        "vec": "random variable value at outcome 1, component 1 is nan",
        "domain": "weight 1 is nan",
        "codomain": "weight 1 is nan",
    }

    @pytest.mark.parametrize("line", sorted(DOCUMENTS))
    @pytest.mark.parametrize("token", ["x", "nan"])
    @pytest.mark.parametrize("mode", ["rational", "float 1e-09"], ids=["rational", "float"])
    def test_bad_token_on_a_number_line(self, mode, token, line):
        text = self.DOCUMENTS[line].format(mode, token)
        if mode == "rational":
            error, message = fp.ConfigParseError, self.FRACTION_MESSAGE.format(token, token)
        elif token == "x":
            error, message = fp.ConfigParseError, self.FLOAT_MESSAGE
        else:
            error, message = fp.NonFiniteError, self.NAN[line]
        with pytest.raises(error) as info:
            serialize.loads(text)
        assert str(info.value) == message

    def test_missing_field(self):
        with pytest.raises(fp.ConfigParseError):
            serialize.loads("kernel\nmode rational\nrow 1\n")

    def test_non_ascii_file_names_path_and_offset(self, tmp_path):
        path = tmp_path / "accent.txt"
        path.write_bytes("rv\nmode rational\n# caf\u00e9\nweights 1\nvalues 1\n".encode())
        message = r"accent\.txt: not ascii text: byte 0xc3 at offset 22"
        with pytest.raises(fp.ConfigParseError, match=message):
            serialize.load(path)

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\nspace\nmode rational\nweights 1\n"
        assert serialize.loads(text).size == 1


NUMBER_TOKENS = st.one_of(
    st.integers(-3, 9).map(str),
    st.tuples(st.integers(-9, 9), st.integers(-3, 9)).map("{0[0]}/{0[1]}".format),
    st.sampled_from([
        "1/0", "-0/1", "2/-3", "+1/2", "1/+2", "0.5", "-0.0", ".5", "1e400", "-1e400", "1e-320",
        "nan", "-nan", "inf", "-inf", "infinity", "x", "1_0", "0x10", "1//2", "/", "1/",
        str(10**400), f"1/{10**400}", f"-{10**30}/{10**30 + 1}",
    ]),
)
KEYS = {
    "space": ("weights",),
    "rv": ("weights", "values"),
    "vecrv": ("weights", "vec", "vec"),
    "kernel": ("domain", "codomain", "row", "row"),
}


@st.composite
def documents(draw):
    """A document of every kind over 1, 2 or 4 outcomes, its lines mostly
    well formed: uniform weights and rows, or lists of mutated tokens
    (ragged, signed, over zero or huge denominators, non-finite), under a
    mode line drawn from the pinned valid and broken ones; then maybe a line dropped,
    doubled, or one of an unknown key put in."""
    kind = draw(st.sampled_from(sorted(KEYS)))
    n = draw(st.sampled_from([1, 2, 4]))
    uniform = [repr(1 / n)] * n
    lines = [kind, "mode " + draw(st.sampled_from(MODE_LINES))]
    for key in KEYS[kind]:
        tokens = draw(st.one_of(st.just(uniform), st.lists(NUMBER_TOKENS, max_size=n + 1)))
        lines.append(" ".join([key, *tokens]))
    at = draw(st.integers(0, len(lines)))
    mutation = draw(st.sampled_from(["none", "drop", "double", "unknown"]))
    if mutation == "drop" and at < len(lines):
        del lines[at]
    elif mutation == "double" and at < len(lines):
        lines.insert(at, lines[at])
    elif mutation == "unknown":
        lines.insert(at, "colour 1 2")
    return "\n".join(lines) + "\n"


class TestFuzzedDocuments:
    @given(documents())
    def test_loads_returns_or_raises_finprob_error(self, text):
        try:
            serialize.loads(text)
        except fp.FinprobError:
            pass


def _instances(mode):
    """One object of every immutable class, on a space with a null outcome."""
    one = mode.one()
    space = fp.make_space([one / 2, one / 3, one / 6, 0 * one], mode)
    part = fp.Partition([(0, 1), (2, 3)], 4)
    kernel = fp.cond_exp_kernel(space, part).kernel
    filtration = fp.Filtration([fp.Partition.trivial(4), part], "increasing", space)
    martingale = fp.martingale_from_terminal(fp.RandomVar([1, 2, 3, 4], space), filtration)
    subspace = fp.Subspace(np.eye(3)[:, :2])
    return [
        part,
        space,
        fp.RandomVar([1, -2, 3, 5], space),
        fp.VecRandomVar([[1, 2], [3, 4], [5, 6], [7, 8]], space),
        kernel,
        fp.coupling_from_kernel(kernel),
        fp.IdempotentKernel(kernel),
        filtration,
        martingale,
        subspace,
        fp.orthogonal_projector(subspace),
    ]


class TestCopyAndPickle:
    COPIES = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    }

    @pytest.mark.parametrize("how", sorted(COPIES))
    @pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
    def test_round_trip(self, mode, how):
        for obj in _instances(mode):
            twin = self.COPIES[how](obj)
            assert type(twin) is type(obj)
            assert pickle.dumps(twin) == pickle.dumps(obj)  # the same state, slot by slot
            with pytest.raises(AttributeError, match=f"{type(obj).__name__} is immutable"):
                twin.anything = 1

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_rational_kernel_with_unread_rows(self, how):
        k = random_mp_kernel(rng_for(3), 3, 4, R)
        twin = self.COPIES[how](k)
        for kernel in (k, twin):  # neither copying nor restoring builds the Fraction rows
            with pytest.raises(AttributeError):
                object.__getattribute__(kernel, "rows")
        assert twin.num.tolist() == k.num.tolist() and twin.den == k.den
        assert not twin.num.flags.writeable
        assert [list(r) for r in twin.rows] == [list(r) for r in k.rows]
        assert fp.as_equal_kernels(twin, k)
        # nor the Fraction values of a random variable
        g = random_vec_rv(rng_for(4), fp.make_space([F(1, 2), F(1, 4), F(0), F(1, 4)], R), 3)
        twin = self.COPIES[how](g)
        for rv in (g, twin):
            with pytest.raises(AttributeError):
                object.__getattribute__(rv, "values")
        assert twin.data.num.tolist() == g.data.num.tolist() and twin.data.den.tolist() == g.data.den.tolist()
        assert not twin.data.num.flags.writeable
        assert twin.values.tolist() == g.values.tolist()
        assert fp.as_equal_rv(twin, g)

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_float_shared_slots_stay_one_array(self, how):
        # a float kernel's rows are its numerators, and a float space's
        # weights are its weight numerators: one array each, also in a copy
        k = random_mp_kernel(rng_for(3), 3, 4, fp.FLOAT_DEFAULT)
        assert k.rows is k.num and k.den == 1
        assert k.domain.int_weights()[0] is k.domain.weights and k.domain.int_weights()[1] == 1
        twin = self.COPIES[how](k)
        assert twin.rows is twin.num and twin.den == 1
        assert not twin.num.flags.writeable
        assert twin.rows.tolist() == k.rows.tolist()
        for space in (twin.domain, self.COPIES[how](k.codomain)):
            num, den = space.int_weights()
            assert num is space.weights and den == 1 and not num.flags.writeable
        # a float random variable's values are its numerators, read or not before the copy
        for read in (True, False):
            g = random_vec_rv(rng_for(4), k.domain, 3)
            if read:
                assert g.values is g.data.num and g.data.den == 1
            twin = self.COPIES[how](g)
            assert twin.values is twin.data.num and twin.data.den == 1
            assert not twin.data.num.flags.writeable
            assert twin.values.tolist() == g.values.tolist()

    @pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
    def test_assignment_still_raises(self, mode):
        for obj in _instances(mode):
            name = type(obj).__slots__[0]
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(obj, name, None)
