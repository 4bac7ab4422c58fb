import pytest

from icalc.errors import NotPrimeError
from icalc.field import PrimeField, is_prime


def test_is_prime_small_values():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(-7)


@pytest.mark.parametrize("n", [1, 4, 6, 9, 100])
def test_composite_characteristic_rejected(n):
    with pytest.raises(NotPrimeError):
        PrimeField(n)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_inverses(p):
    field = PrimeField(p)
    for a in range(1, p):
        assert a * field.inv(a) % p == 1


def test_arithmetic_mod_three():
    field = PrimeField(3)
    assert field.normalize(-4) == 2
    assert field.normalize(7) == 1


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)
