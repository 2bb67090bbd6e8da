import copy
import pickle
from fractions import Fraction as F

import numpy as np
import pytest

import finprob as fp
from finprob import serialize
from finprob.sampling import random_mp_kernel, random_vec_rv, rng_for

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


class TestErrors:
    def test_unknown_kind(self):
        with pytest.raises(fp.ConfigParseError):
            serialize.loads("matrix\nmode rational\n")

    def test_bad_number(self):
        with pytest.raises(fp.ConfigParseError):
            serialize.loads("space\nmode rational\nweights 1/0\n")

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

    @pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
    def test_assignment_still_raises(self, mode):
        for obj in _instances(mode):
            name = type(obj).__slots__[0]
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(obj, name, None)
