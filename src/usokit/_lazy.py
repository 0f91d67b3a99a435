"""numpy, imported on first use.

The modules that run numpy routes (pairwise, tiling, transform,
enumeration) take ``np`` from here.  Every numpy route starts at a
dimension threshold (pairwise.KERNEL_MIN_DIM and the ones built on it) or
in the phase and join kernels, so ``import usokit`` and the work below
those thresholds never import numpy, which costs more than the rest of
the package's import.  The first attribute read imports it; each
attribute is then kept on the proxy, so a later ``np.x`` is one
instance-dict hit, not a module attribute read.
"""


class _Numpy:
    """numpy's attributes, each read from numpy once and then kept."""

    def __getattr__(self, name):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()
