"""The package's errors cross a process boundary whole: a grid worker's
error reaches the parent with its message, its keys and the run's record."""
import inspect
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from imbnode import errors
from imbnode.train import EpochStats, RunRecord

CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass) if issubclass(cls, errors.ImbnodeError)]


def _raised(cls, related=("variant", "pretrain_max_epochs")):
    """An instance of `cls` carrying a partial run record, as `train` raises it."""
    exc = cls("lambda_", "lambda_ must be >= 0", related) if cls is errors.ConfigError else cls("a message")
    exc.record = RunRecord(
        variant="gs_pre_o",
        seed=3,
        config={"lr": 0.01, "scale": "balance"},
        pretrain_losses=[0.75, 0.5],
        epochs=[EpochStats(0, 1.25, 0.5, 1.75, 0.5, 0.625, 0.375)],
        stop_reason="error",
        error=f"{cls.__name__}: {exc}",
        minority_classes=[2],
    )
    return exc


def _raise_config_error(related):
    raise _raised(errors.ConfigError, related)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_pickles_with_its_keys_message_and_record(cls):
    for exc in [_raised(cls)] + ([_raised(cls, ())] if cls is errors.ConfigError else []):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls and str(back) == str(exc)
        assert getattr(back, "key", None) == getattr(exc, "key", None)
        assert getattr(back, "keys", None) == getattr(exc, "keys", None)
        assert back.record == exc.record  # its epochs, losses and error included


def test_a_config_error_in_a_worker_reaches_the_caller_and_leaves_the_pool_working():
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        failed = pool.submit(_raise_config_error, ("variant",))
        later = pool.submit(pow, 2, 10)
        exc = failed.exception(timeout=60)
        assert isinstance(exc, errors.ConfigError), exc
        assert (exc.key, exc.keys, str(exc)) == ("lambda_", ("lambda_", "variant"), "lambda_ must be >= 0")
        assert exc.record.error == "ConfigError: lambda_ must be >= 0"
        assert later.result(timeout=60) == 1024
