"""vqakit: blind UGC video quality toolkit and efficiency benchmark harness.

Import each name from the module that defines it, for example
``vqakit.clip_io.parse_y4m`` or ``vqakit.eval_metrics.evaluate``; the
package root binds only ``__version__``.
"""

__version__ = "0.1.0"
