"""Shared exception types."""


class RegimeError(Exception):
    """A computation was requested outside its supported numerical regime.

    Typical case: Weingarten calculus at D < k, where s_lambda(1^D) = 0 for
    some lambda, the Gram matrix is singular and only a pseudo-inverse would
    exist; `WeingartenTable` raises before it builds any table.
    """
