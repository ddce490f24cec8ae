from setuptools import Extension, setup

# The compiled term kernel needs only a C compiler with unsigned __int128
# (gcc or clang).  optional=True: where it cannot be built, the install
# still succeeds and diosum.kernel falls back to the pure-Python kernel.
# -ffp-contract=off keeps every multiply and add separately rounded, as in
# Python, so both kernels produce the same bits.
setup(
    ext_modules=[
        Extension(
            "diosum._ckernel",
            ["src/diosum/_ckernel.c"],
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
